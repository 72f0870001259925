package uart

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/exportfs"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// onLine runs body as a machine process on a fresh discrete-event clock
// with a line between two ends at baud, so a paced byte takes exactly
// its wire time. body reports a fatal failure by returning it; the line
// is closed before Run returns.
func onLine(t *testing.T, baud int, body func(ck vclock.Clock, a, b *End) error) {
	t.Helper()
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		l := NewLine(ck)
		defer l.Close()
		a, b := l.Ends()
		a.SetBaud(baud)
		b.SetBaud(baud)
		return body(ck, a, b)
	}); err != nil {
		t.Error(err)
	}
}

// fast is the baud rate of the functional tests.
const fast = 8_000_000

// readN reads from e until it has n bytes.
func readN(e *End, n int) (string, error) {
	buf := make([]byte, 64)
	var got []byte
	for len(got) < n {
		k, err := e.Read(buf)
		if err != nil {
			return string(got), err
		}
		got = append(got, buf[:k]...)
	}
	return string(got), nil
}

func TestBytesCrossTheLine(t *testing.T) {
	onLine(t, fast, func(_ vclock.Clock, a, b *End) error {
		a.Write([]byte("at your service"))
		if got, err := readN(b, 15); err != nil || got != "at your service" {
			return fmt.Errorf("received %q, %v", got, err)
		}
		// And back.
		b.Write([]byte("ok"))
		if got, err := readN(a, 2); err != nil || got != "ok" {
			return fmt.Errorf("reverse %q, %v", got, err)
		}
		return nil
	})
}

// 96 bytes at 9600 baud are 960 bits with start and stop bits: exactly
// 100 ms on the wire.
func TestBaudPacing(t *testing.T) {
	onLine(t, 9600, func(ck vclock.Clock, a, b *End) error {
		start := ck.Now()
		a.Write(make([]byte, 96))
		if _, err := readN(b, 96); err != nil {
			return err
		}
		if el := ck.Since(start); el != 100*time.Millisecond {
			return fmt.Errorf("96 bytes at 9600 baud took %v, want 100ms", el)
		}
		return nil
	})
}

// TestWriteDoesNotWaitOutTheWire: a write puts its bytes on the wire
// and returns; the wire's process delivers them when the last bit has
// left, 100 ms later for 96 bytes at 9600 baud.
func TestWriteDoesNotWaitOutTheWire(t *testing.T) {
	onLine(t, 9600, func(ck vclock.Clock, a, b *End) error {
		start := ck.Now()
		if n, err := a.Write(make([]byte, 96)); n != 96 || err != nil {
			return fmt.Errorf("write: %d, %v", n, err)
		}
		if el := ck.Since(start); el != 0 {
			return fmt.Errorf("a 96-byte write at 9600 baud returned after %v, want at once", el)
		}
		if _, err := readN(b, 96); err != nil {
			return err
		}
		if el := ck.Since(start); el != 100*time.Millisecond {
			return fmt.Errorf("the bytes arrived after %v, want 100ms", el)
		}
		return nil
	})
}

// TestListingIsInLineOrder: /dev lists a machine's lines in number
// order, the same bytes on every read, as same-seed determinism needs.
func TestListingIsInLineOrder(t *testing.T) {
	onLine(t, fast, func(ck vclock.Clock, a, b *End) error {
		l := NewLine(ck)
		defer l.Close()
		c, _ := l.Ends()
		dev := NewDev("bootes", ck)
		dev.Add(3, c)
		dev.Add(1, a)
		dev.Add(2, b)
		nsp := ns.New("bootes", ramfs.New("bootes").Root())
		if err := nsp.MountDevice(dev, "", "/dev", ns.MREPL); err != nil {
			return err
		}
		want := []string{"eia1", "eia1ctl", "eia2", "eia2ctl", "eia3", "eia3ctl"}
		for range 10 {
			ents, err := nsp.ReadDir("/dev")
			if err != nil {
				return err
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name)
			}
			if !slices.Equal(names, want) {
				return fmt.Errorf("/dev lists %v, want %v", names, want)
			}
		}
		return nil
	})
}

func TestFileTreeAndCtl(t *testing.T) {
	onLine(t, fast, func(ck vclock.Clock, a, _ *End) error {
		dev := NewDev("bootes", ck)
		dev.Add(1, a)
		nsp := ns.New("bootes", ramfs.New("bootes").Root())
		if err := nsp.MountDevice(dev, "", "/dev", ns.MREPL); err != nil {
			return err
		}
		// The paper's listing: eia1 and eia1ctl, flat in /dev.
		ents, err := nsp.ReadDir("/dev")
		if err != nil {
			return err
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		if len(names) != 2 || names[0] != "eia1" || names[1] != "eia1ctl" {
			return fmt.Errorf("/dev entries %v", names)
		}
		// echo b1200 > /dev/eia1ctl (stty replaced by echo, §2.2).
		ctl, err := nsp.Open("/dev/eia1ctl", vfs.ORDWR)
		if err != nil {
			return err
		}
		defer ctl.Close()
		if _, err := ctl.WriteString("b1200\n"); err != nil {
			return err
		}
		if a.Baud() != 1200 {
			t.Errorf("baud %d after b1200", a.Baud())
		}
		buf := make([]byte, 16)
		n, _ := ctl.ReadAt(buf, 0)
		if string(buf[:n]) != "b1200" {
			t.Errorf("ctl read %q", buf[:n])
		}
		// Line-discipline words are accepted; garbage is not.
		if _, err := ctl.WriteString("l8"); err != nil {
			t.Errorf("l8 rejected: %v", err)
		}
		if _, err := ctl.WriteString("b9x"); !vfs.SameError(err, vfs.ErrBadCtl) {
			t.Errorf("bad baud accepted: %v", err)
		}
		if _, err := ctl.WriteString("zzz"); err == nil {
			t.Error("garbage ctl accepted")
		}
		return nil
	})
}

func TestDataFileThroughNamespace(t *testing.T) {
	onLine(t, fast, func(ck vclock.Clock, a, b *End) error {
		dev := NewDev("bootes", ck)
		dev.Add(1, a)
		nsp := ns.New("bootes", ramfs.New("bootes").Root())
		nsp.MountDevice(dev, "", "/dev", ns.MREPL)
		fd, err := nsp.Open("/dev/eia1", vfs.ORDWR)
		if err != nil {
			return err
		}
		defer fd.Close()
		fd.WriteString("dial the modem")
		if got, err := readN(b, 14); err != nil || got != "dial the modem" {
			return fmt.Errorf("peer received %q, %v", got, err)
		}
		return nil
	})
}

func TestSerialDoesNotPreserveDelimiters(t *testing.T) {
	onLine(t, fast, func(_ vclock.Clock, a, b *End) error {
		a.Write([]byte("one"))
		a.Write([]byte("two"))
		// The reads may merge ("onetwo") — bytes, not messages.
		if got, err := readN(b, 6); err != nil || got != "onetwo" {
			return fmt.Errorf("byte stream %q, %v", got, err)
		}
		return nil
	})
}

func TestFrameModuleOverSerial(t *testing.T) {
	// §2.4.1 in anger: push the frame module on both ends and the
	// raw byte line carries delimited messages again.
	onLine(t, fast, func(_ vclock.Clock, a, b *End) error {
		if err := a.Stream().PushName("frame", nil); err != nil {
			return err
		}
		if err := b.Stream().PushName("frame", nil); err != nil {
			return err
		}
		a.Write([]byte("first message"))
		a.Write([]byte("second"))
		buf := make([]byte, 64)
		n, err := b.Read(buf)
		if err != nil || string(buf[:n]) != "first message" {
			return fmt.Errorf("framed read %q, %v", buf[:n], err)
		}
		n, _ = b.Read(buf)
		if string(buf[:n]) != "second" {
			t.Errorf("second framed read %q", buf[:n])
		}
		return nil
	})
}

func Test9PMountOverSerialLine(t *testing.T) {
	// A home user's slow link: mount a file tree across the UART
	// using the ninep marshaling adapter over the byte stream.
	onLine(t, fast, func(ck vclock.Clock, a, b *End) error {
		rfs := ramfs.New("home")
		rfs.WriteFile("mail/inbox", []byte("You have mail.\n"), 0664)
		remote := ns.New("home", rfs.Root())
		ck.Go(func() { exportfs.Serve(ninep.NewStreamConn(endRWC{b}), remote, "/", ck) })

		local := ns.New("user", ramfs.New("user").Root())
		cfg := mnt.Config{Client: ninep.ClientConfig{Clock: ck}}
		cl, err := exportfs.ImportConfig(local, ninep.NewStreamConn(endRWC{a}), "", "/n/home", ns.MREPL, cfg)
		if err != nil {
			return err
		}
		defer cl.Close()
		got, err := local.ReadFile("/n/home/mail/inbox")
		if err != nil || !bytes.Equal(got, []byte("You have mail.\n")) {
			return fmt.Errorf("9P over serial: %q, %v", got, err)
		}
		return nil
	})
}

// endRWC adapts an End to io.ReadWriteCloser.
type endRWC struct{ e *End }

func (w endRWC) Read(p []byte) (int, error) {
	n, err := w.e.Read(p)
	if n == 0 && err == nil {
		return 0, io.EOF
	}
	return n, err
}
func (w endRWC) Write(p []byte) (int, error) { return w.e.Write(p) }
func (w endRWC) Close() error                { return w.e.Close() }

func TestHangupOnClose(t *testing.T) {
	if err := vclock.Simulate(func(ck vclock.Clock) error {
		l := NewLine(ck)
		a, b := l.Ends()
		a.SetBaud(1_000_000)
		a.Write([]byte("bye"))
		if got, err := readN(b, 3); err != nil || got != "bye" {
			return fmt.Errorf("read %q, %v", got, err)
		}
		l.Close()
		buf := make([]byte, 16)
		if _, err := b.Read(buf); err == nil {
			t.Error("read after line close succeeded")
		}
		if _, err := a.Write([]byte("x")); err == nil {
			t.Error("write after line close succeeded")
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}
