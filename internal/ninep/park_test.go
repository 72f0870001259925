package ninep

import (
	"io"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Both tests here hold a lock across a park on the virtual clock with a
// second goroutine wanting it. With a sync.Mutex in that place the
// second goroutine blocks holding the scheduler's token and the test
// hangs; they pass because the lock is a vclock.Mutex.

// pacedFile is a delimiter-preserving data file whose writes take
// simulated time, as a conversation on a bandwidth-paced medium does.
// It notes writes that overlap: a MsgConn's writers must serialize.
type pacedFile struct {
	MsgConn
	ck      vclock.Clock
	writing bool
	overlap bool
}

func (f *pacedFile) Read(p []byte) (int, error) {
	m, err := f.ReadMsg()
	if err != nil {
		return 0, err
	}
	n := copy(p, m)
	block.PutBytes(m)
	return n, nil
}

func (f *pacedFile) Write(p []byte) (int, error) {
	if f.writing {
		f.overlap = true
	}
	f.writing = true
	f.ck.Sleep(time.Millisecond)
	f.writing = false
	m := block.GetBytes(len(p))
	copy(m, p)
	return len(p), f.WriteMsg(m)
}

var _ io.ReadWriteCloser = (*pacedFile)(nil)

func TestTwoProcessesShareOneClientOverPacedConn(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("srv", v)
		fs.WriteFile("f", []byte("hello"), 0664)
		a, b := NewPipe(v)
		v.Go(func() {
			Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, v)
		})
		file := &pacedFile{MsgConn: a, ck: v}
		cl, err := NewClient(NewDelimConn(file), ClientConfig{Clock: v})
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		root, err := cl.Attach("glenda", "")
		if err != nil {
			t.Error(err)
			return
		}
		const procs, rounds = 2, 3
		start := v.Now()
		wg := vclock.NewWaitGroup(v)
		for range procs {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for range rounds {
					if _, err := root.Stat(); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
		if file.overlap {
			t.Error("two requests were in the transport's Write at once")
		}
		// Six 1 ms writes, one at a time; replies cost nothing.
		if got := v.Since(start); got != procs*rounds*time.Millisecond {
			t.Errorf("%d paced requests took %v", procs*rounds, got)
		}
	})
}

// parkingDir is a directory whose Walk takes simulated time, as a
// gateway's does when the tree it serves is itself a mount.
type parkingDir struct {
	vfs.Node
	ck vclock.Clock
}

func (d parkingDir) Walk(name string) (vfs.Node, error) {
	d.ck.Sleep(10 * time.Millisecond)
	return d.Node.Walk(name)
}

func TestWalkAndOpenPipelinedOnOneFidWhoseWalkParks(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("srv", v)
		fs.WriteFile("f", []byte("hello"), 0664)
		a, b := NewPipe(v)
		v.Go(func() {
			Serve(b, func(uname, aname string) (vfs.Node, error) {
				return parkingDir{fs.Root(), v}, nil
			}, v)
		})
		cl, err := NewClient(a, ClientConfig{Clock: v})
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		root, err := cl.Attach("glenda", "")
		if err != nil {
			t.Error(err)
			return
		}
		start := v.Now()
		walk, err := cl.RPCAsync(&Fcall{Type: Twalk, Fid: root.fid, Name: "f"})
		if err != nil {
			t.Error(err)
			return
		}
		open, err := cl.RPCAsync(&Fcall{Type: Topen, Fid: root.fid, Mode: vfs.OREAD})
		if err != nil {
			t.Error(err)
			return
		}
		rw, werr := walk.Wait()
		ro, oerr := open.Wait()
		if werr != nil || oerr != nil {
			t.Errorf("Twalk: %v, Topen: %v", werr, oerr)
			return
		}
		// The open waited its turn on the fid, so it opened the file
		// the walk reached, not the directory it started from.
		if ro.Qid != rw.Qid {
			t.Errorf("Ropen qid %v, Rwalk qid %v", ro.Qid, rw.Qid)
		}
		if got := v.Since(start); got != 10*time.Millisecond {
			t.Errorf("the pair took %v, want the walk's 10ms", got)
		}
	})
}
