package dialer_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dialer"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onPaperWorld runs body in the paper's world on a discrete-event
// clock, as a machine process: it reports a fatal failure by returning
// it, and the world is closed before Run returns.
func onPaperWorld(t *testing.T, body func(w *core.World) error) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Run(func() {
		w, err := core.PaperWorld(core.FastProfiles(), v)
		if err == nil {
			defer w.Close()
			err = body(w)
		}
		if err != nil {
			t.Error(err)
		}
	})
}

func TestDialSymbolicName(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		conn, err := dialer.Dial(w.Machine("musca").NS, "il!helix!echo")
		if err != nil {
			return err
		}
		defer conn.Close()
		if !strings.HasPrefix(conn.Dir, "/net/il/") {
			t.Errorf("connection dir %q", conn.Dir)
		}
		conn.Write([]byte("x"))
		buf := make([]byte, 4)
		if n, err := conn.Read(buf); err != nil || string(buf[:n]) != "x" {
			return fmt.Errorf("echo %q, %v", buf[:n], err)
		}
		return nil
	})
}

func TestDialFallsThroughRefusedNetworks(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		// daytime only on dk: il/tcp translations will be refused first.
		l, err := dialer.Announce(w.Machine("helix").NS, "dk!*!daytime")
		if err != nil {
			return err
		}
		defer l.Close()
		w.Clock().Go(func() {
			for {
				call, err := l.Listen()
				if err != nil {
					return
				}
				c, err := call.Accept()
				if err != nil {
					return
				}
				c.Write([]byte("1993"))
				c.Close()
			}
		})
		conn, err := dialer.Dial(w.Machine("musca").NS, "net!helix!daytime")
		if err != nil {
			return fmt.Errorf("net! dial with only dk serving: %w", err)
		}
		defer conn.Close()
		if !strings.HasPrefix(conn.Dir, "/net/dk/") {
			t.Errorf("expected the dk fallback, got %q", conn.Dir)
		}
		buf := make([]byte, 16)
		n, err := conn.Read(buf)
		if err != nil || string(buf[:n]) != "1993" {
			return fmt.Errorf("daytime read %q, %v", buf[:n], err)
		}
		return nil
	})
}

func TestDialErrors(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		musca := w.Machine("musca")
		if _, err := dialer.Dial(musca.NS, "il!helix!nosuchservice"); err == nil {
			t.Error("unknown service dialed")
		}
		if _, err := dialer.Dial(musca.NS, "il!ghosthost!echo"); err == nil {
			t.Error("unknown host dialed")
		}
		if _, err := dialer.Dial(musca.NS, "malformed"); err == nil {
			t.Error("malformed destination dialed")
		}
		// A known host with nobody listening: connection refused.
		if _, err := dialer.Dial(musca.NS, "il!bootes!echo"); !vfs.SameError(err, vfs.ErrConnRef) {
			t.Errorf("refused dial error = %v", err)
		}
		return nil
	})
}

func TestAnnounceListenAcceptShape(t *testing.T) {
	// The §5.2 echo_server shape, using the library verbs.
	onPaperWorld(t, func(w *core.World) error {
		musca := w.Machine("musca")
		afd, err := dialer.Announce(musca.NS, "tcp!*!login")
		if err != nil {
			return err
		}
		defer afd.Close()
		if !strings.HasPrefix(afd.Dir, "/net/tcp/") {
			t.Errorf("announce dir %q", afd.Dir)
		}
		served := vclock.NewWaitGroup(w.Clock())
		served.Add(1)
		w.Clock().Go(func() {
			defer served.Done()
			lcfd, err := afd.Listen()
			if err != nil {
				t.Error(err)
				return
			}
			dfd, err := lcfd.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer dfd.Close()
			buf := make([]byte, 256)
			n, _ := dfd.Read(buf)
			dfd.Write(buf[:n])
		})

		conn, err := dialer.Dial(w.Machine("helix").NS, "tcp!musca!login")
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.Write([]byte("login: glenda"))
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil || string(buf[:n]) != "login: glenda" {
			return fmt.Errorf("accept echo %q, %v", buf[:n], err)
		}
		served.Wait()
		return nil
	})
}

func TestRejectRefusesCall(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		l, err := dialer.Announce(w.Machine("musca").NS, "il!*!rexauth")
		if err != nil {
			return err
		}
		defer l.Close()
		ck := w.Clock()
		ck.Go(func() {
			call, err := l.Listen()
			if err != nil {
				return
			}
			call.Reject("go away")
		})
		conn, err := dialer.Dial(w.Machine("helix").NS, "il!musca!rexauth")
		if err != nil {
			return nil // refused at connect: fine
		}
		defer conn.Close()
		// A conversation still up after three seconds is closed, so that
		// the read below ends either way.
		const limit = 3 * time.Second
		watchdog := ck.AfterFunc(limit, func() { conn.Close() })
		defer watchdog.Stop()
		start := ck.Now()
		buf := make([]byte, 8)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		if ck.Since(start) >= limit {
			return errors.New("rejected call stayed connected")
		}
		return nil
	})
}

func TestAnnounceCollision(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		musca := w.Machine("musca")
		a, err := dialer.Announce(musca.NS, "tcp!*!login")
		if err != nil {
			return err
		}
		defer a.Close()
		if _, err := dialer.Announce(musca.NS, "tcp!*!login"); err == nil {
			t.Error("duplicate announcement succeeded")
		}
		return nil
	})
}

func TestConnAddrHelpers(t *testing.T) {
	onPaperWorld(t, func(w *core.World) error {
		musca := w.Machine("musca")
		conn, err := dialer.Dial(musca.NS, "tcp!helix!echo")
		if err != nil {
			return err
		}
		defer conn.Close()
		if ra := conn.RemoteAddr(musca.NS); ra != "135.104.9.31!7" {
			t.Errorf("remote %q", ra)
		}
		if la := conn.LocalAddr(musca.NS); !strings.HasPrefix(la, "135.104.9.6!") {
			t.Errorf("local %q", la)
		}
		return nil
	})
}
