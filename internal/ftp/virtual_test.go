package ftp_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ether"
	"repro/internal/ftp"
	"repro/internal/vclock"
)

// ftpfs holds its lock across a whole FTP command and its data transfer
// — TCP round trips on a paced Ethernet — so a second process walking
// the same /n/ftp mount waits for it through the clock. When the lock
// was a sync.Mutex, that second process blocked in it holding the
// scheduler's token: the first one's segments could never arrive, and
// the run hung (without even the deadlock panic) until the test timeout.
func TestTwoProcessesWalkOneFTPMountOnVirtualClock(t *testing.T) {
	files := []struct{ path, text string }{
		{"pub/README", "welcome to bootes ftp\n"},
		{"pub/src/main.c", "main(){}\n"},
	}
	v := vclock.NewVirtual()
	v.Run(func() {
		w, err := core.NewWorldClock(core.PaperNdb, v)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		w.AddEther("ether0", ether.Profile{Bandwidth: 10_000_000 / 8, Latency: time.Millisecond})
		var ms [2]*core.Machine
		for i, name := range []string{"bootes", "musca"} {
			if ms[i], err = w.NewMachine(core.MachineConfig{Name: name, Ethers: []string{"ether0"}}); err != nil {
				t.Error(err)
				return
			}
		}
		bootes, musca := ms[0], ms[1]
		for _, f := range files {
			bootes.Root.WriteFile(f.path, []byte(f.text), 0664)
		}
		if _, err := bootes.ServeFTP("tcp!*!ftp", "/", ftp.ServerConfig{User: "glenda", Pass: "rabbit"}); err != nil {
			t.Error(err)
			return
		}
		if _, err := musca.MountFTP("tcp!bootes!ftp", "glenda", "rabbit", "/n/ftp"); err != nil {
			t.Error(err)
			return
		}
		procs := vclock.NewWaitGroup(v)
		for _, f := range files {
			procs.Add(1)
			v.Go(func() {
				defer procs.Done()
				// Each read is a walk (LIST per directory) and a RETR,
				// all under the one control connection's lock.
				if b, err := musca.NS.ReadFile("/n/ftp/" + f.path); err != nil || string(b) != f.text {
					t.Errorf("%s over ftpfs: %q, %v", f.path, b, err)
				}
			})
		}
		procs.Wait()
	})
}
