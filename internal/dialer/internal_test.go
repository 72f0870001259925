package dialer

import (
	"strings"
	"testing"

	"repro/internal/ns"
	"repro/internal/ramfs"
)

func TestDirectTranslateWithoutCS(t *testing.T) {
	lines, err := directTranslate("tcp!1.2.3.4!999")
	if err != nil || len(lines) != 1 || lines[0] != "/net/tcp/clone 1.2.3.4!999" {
		t.Errorf("directTranslate: %v, %v", lines, err)
	}
	if _, err := directTranslate("net!host!svc"); err == nil {
		t.Error("net! without cs translated")
	}
	if _, err := directTranslate("lonely"); err == nil {
		t.Error("one-part destination translated")
	}
}

// TestAnnounceOverCloneThatReadsEmpty: a clone file that yields no
// conversation number is a failed announcement with a reason, not a nil
// listener beside a nil error.
func TestAnnounceOverCloneThatReadsEmpty(t *testing.T) {
	rfs := ramfs.New("glenda")
	if err := rfs.WriteFile("net/fake/clone", nil, 0666); err != nil {
		t.Fatal(err)
	}
	l, err := Announce(ns.New("glenda", rfs.Root()), "fake!*!echo")
	if l != nil || err == nil || !strings.Contains(err.Error(), "announce: reading clone") {
		t.Errorf("Announce = %v, %v; want no listener and a reading-clone error", l, err)
	}
}
