package ninep

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// A finished Pending goes back to its client and a finished srvReq to
// its server, and the next RPC reuses them. The tests below drive each
// way a reused object could still carry its last life — a reply, a
// flush, a chain link, a flush mark — into the next one.

// TestPendingReusedAfterRacedFlush: an Rread races its Tflush and is
// dropped; the tag and the Pending are then reused, and the new RPC
// gets its own reply, never the dropped one. The same Pending then
// serves a window cancelled after its reply landed, another RPC, and a
// window cancelled on a dead client: nothing of one life reaches the
// next (a stale flush would be waited for forever, a stale reply freed
// twice), and every block comes home.
func TestPendingReusedAfterRacedFlush(t *testing.T) {
	var late *lateConn
	wrap := func(ck vclock.Clock, c MsgConn) MsgConn {
		m := newLateConn(ck, c)
		late = m.(*lateConn)
		return m
	}
	want := pattern(4 * MaxFData)
	blocksBack(t, func() {
		onCountingServer(t, ClientConfig{FileTree: true}, wrap, func(v *vclock.Virtual, cl *Client, cc *countingConn, fs *ramfs.FS) {
			fs.WriteFile("f", want, 0664)
			f := openFile(t, cl, "f", vfs.OREAD)
			if f == nil {
				return
			}
			read := func(off int64) *Pending {
				p, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: f.fid, Offset: off, Count: 64})
				if err != nil {
					t.Error(err)
					return nil
				}
				return p
			}
			check := func(p *Pending, off int64) {
				t.Helper()
				r, err := p.Wait()
				if err != nil {
					t.Errorf("read at %d: %v", off, err)
					return
				}
				if !bytes.Equal(r.Data, want[off:off+64]) {
					t.Errorf("read at %d got another read's reply", off)
				}
				r.free()
			}

			// The reply is held until the Tflush is out: it reaches
			// demux after its tag was abandoned, and is dropped.
			p := read(0)
			if p == nil {
				return
			}
			tag := p.tag
			v.Sleep(time.Millisecond)
			p.Flush()
			late.mu.Lock()
			raced := late.late
			late.mu.Unlock()
			if raced != 1 {
				t.Errorf("%d replies raced their Tflush, want 1", raced)
			}

			// The same tag and the same Pending, for another read.
			cl.mu.Lock()
			cl.nextTag = tag - 1
			cl.mu.Unlock()
			q := read(64)
			if q == nil {
				return
			}
			if q != p || q.tag != tag {
				t.Errorf("the read after the flush got tag %d (Pending reused: %v), want tag %d on the flushed read's Pending", q.tag, q == p, tag)
			}
			check(q, 64)

			// A window cancelled once its reply has landed: no Tflush
			// goes out, and none from an earlier life is waited for.
			flushes := cc.count(Tflush)
			w := f.NewWindow()
			if err := w.Read(128, 64); err != nil {
				t.Error(err)
				return
			}
			if w.head != p {
				t.Error("the window's fragment is not on the reused Pending")
			}
			v.Sleep(time.Millisecond)
			w.Cancel()
			if got := cc.count(Tflush) - flushes; got != 0 {
				t.Errorf("Cancel of a landed reply sent %d Tflushes, want 0", got)
			}

			// Another reply taken by Wait, then a window on a dead
			// client: Cancel frees what landed and nothing else.
			check(read(192), 192)
			if err := w.Read(256, 64); err != nil {
				t.Error(err)
				return
			}
			cl.Close()
			if _, landed := w.head.replied(); landed {
				t.Error("the reply landed before the client died")
			}
			w.Cancel()
		})
	})
}

// TestStaleFlushSparesRecycledRequest: a read parked in the server is
// flushed, and once it finishes its srvReq serves the next request. A
// second Tflush for the first read's tag arrives while that request is
// parked: the tag names nothing in flight, so nothing is marked, and
// the request that reuses the flushed one's srvReq is answered. (On the
// real clock the mark is stored under the lock run deletes under, so a
// Tflush that found the old request cannot mark it after it has been
// recycled.)
func TestStaleFlushSparesRecycledRequest(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := newBlockingFS(v)
		a, b := NewPipe(v)
		s := NewServer(func(uname, aname string) (vfs.Node, error) { return fs.Attach("") }, v)
		v.Go(func() { s.ServeConn(b) })
		cl, err := NewClient(a, ClientConfig{Clock: v})
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		defer fs.release.Close()
		root, err := cl.Attach("u", "")
		if err != nil {
			t.Error(err)
			return
		}
		if err := root.Open(vfs.OREAD); err != nil {
			t.Error(err)
			return
		}
		s.cmu.Lock()
		c := s.conns[1]
		s.cmu.Unlock()
		inFlight := func(tag uint16) *srvReq {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.reqs[tag]
		}

		p1, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: root.fid, Count: 64})
		if err != nil {
			t.Error(err)
			return
		}
		tag1 := p1.tag
		v.Sleep(time.Millisecond) // the read parks in the handle
		st := inFlight(tag1)
		if st == nil {
			t.Error("the parked read is not in flight")
			return
		}
		p1.Flush()
		fs.release.Send(struct{}{})
		v.Sleep(time.Millisecond) // it finishes, its reply suppressed

		p2, err := cl.RPCAsync(&Fcall{Type: Tread, Fid: root.fid, Count: 64})
		if err != nil {
			t.Error(err)
			return
		}
		v.Sleep(time.Millisecond)
		if inFlight(p2.tag) != st {
			t.Error("the second read does not reuse the flushed read's srvReq")
		}
		if r, err := cl.RPC(&Fcall{Type: Tflush, Oldtag: tag1}); err != nil || r.Type != Rflush {
			t.Errorf("stale flush = %v, %v", r.Type, err)
			return
		}
		fs.release.Send(struct{}{})
		r, err := p2.Wait()
		if err != nil || string(r.Data) != "released" {
			t.Errorf("the second read = %q, %v", r.Data, err)
		}
		r.free()
	})
}
