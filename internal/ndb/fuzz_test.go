package ndb_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ndb"
)

// FuzzParse holds the database syntax to one grammar in both
// directions: whatever text Parse accepts, each entry's String parses
// back to the same tuples.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		core.PaperNdb,
		string(ndb.GenerateGlobal(4, 1)),
		"sys = helix\n\tdom=helix.research.bell-labs.com\n\tproto=il flavor=9cpu\n",
		"sys=test\n\tval=\"hello world\"\tother=plain\n# comment\nsys=two\n",
		"sys=a\n\ttrusted\n",
		"sys=dos descr=\"C:\\dos box\"\n",
		"sys=tab descr=\"a\tb\"\n",
		"sys=test\r\tip=1.2.3.4\r\n",
		"sys=a ip=1.2.3.4 #ip=5.6.7.8\n",
		"sys=a =bare\n",
		"\tindented=first\n",
		"sys=a\n\tval=\"unterminated\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ndb.Parse("fuzz", data)
		if err != nil {
			return
		}
		for _, e := range file.Entries {
			again, err := ndb.Parse("again", []byte(e.String()+"\n"))
			if err != nil {
				t.Fatalf("%q from %q does not parse: %v", e.String(), data, err)
			}
			if len(again.Entries) != 1 || !slices.Equal(again.Entries[0], e) {
				t.Fatalf("%q from %q parses to %q, want %q", e.String(), data, again.Entries, []ndb.Tuple(e))
			}
		}
	})
}
