package mnt

import (
	"bytes"
	"testing"

	"repro/internal/ninep"
	"repro/internal/ramfs"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Two processes read through one open file on a file-tree mount, on the
// virtual clock. The handle's lock is held across its RPCs, so the
// second reader waits for it while the first is parked on a reply; with
// a sync.Mutex there the waiter keeps the scheduler's token and the
// test hangs. Each reader scans the whole file from its own offsets, so
// they also break each other's sequential pattern and cancel each
// other's readahead; every byte must still be the file's.
func TestTwoReadersShareOneFileTreeHandle(t *testing.T) {
	v := vclock.NewVirtual()
	v.Run(func() {
		fs := ramfs.NewClock("srv", v)
		want := testPattern(8*ninep.MaxFData + 100)
		fs.WriteFile("big", want, 0664)
		a, b := ninep.NewPipe(v)
		v.Go(func() {
			ninep.Serve(b, func(uname, aname string) (vfs.Node, error) { return fs.Root(), nil }, v)
		})
		cfg := FileConfig()
		cfg.Client.Clock = v
		root, cl, err := MountConfig(a, "glenda", "", cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		n, err := root.Walk("big")
		if err != nil {
			t.Error(err)
			return
		}
		h, err := n.Open(vfs.OREAD)
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		// Two sequential reads arm the readahead before the readers start.
		buf := make([]byte, ninep.MaxFData)
		for off := int64(0); off < 2*ninep.MaxFData; off += ninep.MaxFData {
			if _, err := h.Read(buf, off); err != nil {
				t.Error(err)
				return
			}
		}
		issued := RAIssued.Load()
		wg := vclock.NewWaitGroup(v)
		for r := range 2 {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				var got []byte
				buf := make([]byte, ninep.MaxFData)
				for {
					n, err := h.Read(buf, int64(len(got)))
					if err != nil {
						t.Errorf("reader %d at %d: %v", r, len(got), err)
						return
					}
					if n == 0 {
						break
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d read %d bytes that are not the file's %d", r, len(got), len(want))
				}
			})
		}
		wg.Wait()
		if RAIssued.Load() == issued {
			t.Error("no readahead was issued while the readers shared the handle")
		}
	})
}
