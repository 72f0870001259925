package exportfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/medium"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// backingRead is what one read of the backing tree takes in the
// fairness test: every read there misses the cache, so it holds the
// pool worker that runs it for this long.
const backingRead = time.Millisecond

// slowNode serves a tree whose file reads take backingRead of
// simulated time, as a gateway's do when the tree it serves is itself
// a mount across a network. Its files are endless: a read at any
// offset fills the whole buffer, so no read is past the end, which the
// cache would answer without the backing tree.
type slowNode struct {
	vfs.Node
	ck vclock.Clock
}

func (n slowNode) Walk(name string) (vfs.Node, error) {
	c, err := n.Node.Walk(name)
	if err != nil {
		return nil, err
	}
	return slowNode{c, n.ck}, nil
}

func (n slowNode) Open(mode int) (vfs.Handle, error) {
	h, err := n.Node.Open(mode)
	if err != nil {
		return nil, err
	}
	return slowHandle{h, n.ck}, nil
}

type slowHandle struct {
	vfs.Handle
	ck vclock.Clock
}

func (h slowHandle) Read(p []byte, off int64) (int, error) {
	h.ck.Sleep(backingRead)
	clear(p)
	return len(p), nil
}

// Stable lets the gateway's cache hold the file, so its reads run on
// the server's pool as cache fills.
func (h slowHandle) Stable() bool { return true }

// pacedConn is a 9P transport over two paced medium pipes.
type pacedConn struct{ tx, rx *medium.Pipe }

func (c pacedConn) ReadMsg() ([]byte, error) { return c.rx.Recv() }
func (c pacedConn) WriteMsg(m []byte) error  { return c.tx.SendOwned(m) }
func (c pacedConn) Close() error {
	c.tx.Close()
	c.rx.Close()
	return nil
}

// The gateway's fairness claim: a tenant that keeps a full window of
// reads in flight cannot starve the others. The server's pool of
// DefaultWorkers takes connections round-robin, one request a turn,
// not requests in arrival order, so a polite tenant's read waits for
// one worker to come free, never behind the hot tenant's window. Here
// every read misses the cache and holds its worker for backingRead:
// the hot tenant's 64 reads in flight are four times what the pool
// runs at once. Each polite tenant reads one fragment at a time over a
// paced connection of its own; each read's latency is simulated, so
// the figures are exact.
func TestHotTenantCannotStarvePoliteOnes(t *testing.T) {
	// The hot tenant stops when the polite ones are done, or after
	// hotBudget reads: a dispatcher that starves them fails the test
	// instead of flooding forever.
	const politeReads, hotWindow, hotBudget = 10, 64, 2000
	onClock(func(ck vclock.Clock) {
		rfs := ramfs.NewClock("gw", ck)
		names := []string{"hot", "p1", "p2", "p3"}
		for _, name := range names {
			if err := rfs.WriteFile(name, []byte(name), 0664); err != nil {
				t.Error(err)
				return
			}
		}
		srv := NewServer(ns.New("gw", slowNode{rfs.Root(), ck}), Config{Clock: ck})
		defer srv.Close()
		// open dials the server over a 10 Mb/s connection with 500 us
		// of latency each way and opens name on it.
		open := func(name string) (*ninep.Client, *ninep.Fid) {
			prof := medium.Profile{Clock: ck, Bandwidth: 1_250_000, Latency: 500 * time.Microsecond}
			up, down := medium.NewPipe(prof), medium.NewPipe(prof)
			ck.Go(func() { srv.ServeConn(pacedConn{tx: down, rx: up}) })
			cl, err := ninep.NewClient(pacedConn{tx: up, rx: down}, ninep.ClientConfig{Clock: ck})
			if err != nil {
				t.Fatal(err)
			}
			f, err := cl.Attach("glenda", "")
			if err == nil {
				err = f.Walk(name)
			}
			if err == nil {
				err = f.Open(vfs.OREAD)
			}
			if err != nil {
				t.Fatal(err)
			}
			return cl, &f
		}

		// Each read is at a fragment not read before: a cache miss.
		buf := make([]byte, 64)
		read := func(f *ninep.Fid, i int) time.Duration {
			start := ck.Now()
			if _, err := f.Read(buf, int64(i)*ninep.MaxFData); err != nil {
				t.Error(err)
			}
			return ck.Since(start)
		}
		lone, loneFid := open("p1")
		defer lone.Close()
		alone := read(loneFid, 1000)

		hot, hotFid := open("hot")
		defer hot.Close()
		stop := vclock.NewMailbox[struct{}](ck, 1)
		hotReads := vclock.NewMailbox[int](ck, 1)
		ck.Go(func() {
			w := hotFid.NewWindow()
			defer w.Cancel()
			next := 0
			issue := func() {
				if err := w.Read(int64(next)*ninep.MaxFData, len(buf)); err != nil {
					t.Error(err)
				}
				next++
			}
			for w.Len() < hotWindow {
				issue()
			}
			reaped := 0
			for stop.Len() == 0 && reaped < hotBudget {
				if _, _, _, err := w.Reap(); err != nil {
					t.Error(err)
					break
				}
				reaped++
				issue()
			}
			hotReads.Send(reaped)
		})
		// The polite tenants come once the hot window is full.
		ck.Sleep(5 * time.Millisecond)
		lat := make([][]time.Duration, 3)
		wg := vclock.NewWaitGroup(ck)
		for i, name := range names[1:] {
			cl, f := open(name)
			defer cl.Close()
			wg.Add(1)
			ck.Go(func() {
				defer wg.Done()
				for k := range politeReads {
					lat[i] = append(lat[i], read(f, k))
				}
			})
		}
		wg.Wait()
		stop.Send(struct{}{})
		n, _ := hotReads.Recv()

		// The claim: no polite read waits for more than one worker to
		// come free beyond what it takes alone.
		var got []string
		for i, ls := range lat {
			var sum, worst time.Duration
			for _, l := range ls {
				sum += l
				worst = max(worst, l)
				if l > alone+backingRead {
					t.Errorf("p%d read took %v under the flood; alone %v", i+1, l, alone)
				}
			}
			got = append(got, fmt.Sprintf("p%d mean %v max %v", i+1, sum/politeReads, worst))
		}
		got = append(got, fmt.Sprintf("alone %v hot %d reads", alone, n))
		want := []string{
			"p1 mean 2.274ms max 2.5968ms",
			"p2 mean 2.2244ms max 2.5968ms",
			"p3 mean 2.27064ms max 2.5968ms",
			"alone 2.0784ms hot 599 reads",
		}
		if !slices.Equal(got, want) {
			t.Errorf("latencies under the flood:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}
