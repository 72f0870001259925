package ftp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vclock"
)

// ftpfs holds its lock across a whole FTP command and its data transfer
// — TCP round trips on a paced Ethernet — so a second process walking
// the same /n/ftp mount waits for it through the clock. When the lock
// was a sync.Mutex, that second process blocked in it holding the
// scheduler's token: the first one's segments could never arrive, and
// the run hung (without even the deadlock panic) until the test timeout.
func TestTwoProcessesWalkOneFTPMountOnVirtualClock(t *testing.T) {
	onFTPWorld(t, core.CalibratedProfiles(), func(_, musca *core.Machine) error {
		ck := musca.World.Clock()
		procs := vclock.NewWaitGroup(ck)
		for _, f := range files {
			procs.Add(1)
			ck.Go(func() {
				defer procs.Done()
				// Each read is a walk (LIST per directory) and a RETR,
				// all under the one control connection's lock.
				if b, err := musca.NS.ReadFile("/n/ftp/" + f.path); err != nil || string(b) != f.text {
					t.Errorf("%s over ftpfs: %q, %v", f.path, b, err)
				}
			})
		}
		procs.Wait()
		return nil
	})
}
