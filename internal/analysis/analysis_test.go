package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches corpus expectations: // want <check> "substring".
// An optional offset (want-1, want+2) anchors the expectation to a
// nearby line — needed when the diagnostic lands on a line that
// cannot carry a second comment, like a directive's own line.
var wantRe = regexp.MustCompile(`// want([+-]\d+)? ([\w-]+) "([^"]*)"`)

type want struct {
	check   string
	substr  string
	matched bool
}

// TestCorpus runs every check over each testdata file and demands an
// exact position match both ways: every diagnostic must hit a want on
// its line, and every want must be hit.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "src", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			res := runCorpusFile(t, file)
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			wants := map[int][]*want{}
			total := 0
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					off := 0
					if m[1] != "" {
						off, _ = strconv.Atoi(m[1])
					}
					wants[i+1+off] = append(wants[i+1+off], &want{check: m[2], substr: m[3]})
					total++
				}
			}
			for _, d := range res.Diags {
				found := false
				for _, w := range wants[d.Pos.Line] {
					if w.check == d.Check && strings.Contains(d.Message, w.substr) {
						w.matched = true
						found = true
					}
				}
				if !found {
					t.Errorf("%s:%d: unexpected %s: %s", file, d.Pos.Line, d.Check, d.Message)
				}
			}
			for line, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("%s:%d: missing %s diagnostic matching %q", file, line, w.check, w.substr)
					}
				}
			}
		})
	}
}

// TestIgnoreDirectiveCounted pins the suppression accounting: the
// ignorecase corpus carries two suppressed sends (same line, line
// above); malformed directives are errors and suppress nothing, and a
// well-formed one that matched nothing is an error too.
func TestIgnoreDirectiveCounted(t *testing.T) {
	res := runCorpusFile(t, filepath.Join("testdata", "src", "ignorecase.go"))
	if got := res.Suppressed["lock-across-send"]; got != 2 {
		t.Errorf("suppressed lock-across-send = %d, want 2", got)
	}
	if got := len(res.Ignored); got != 2 {
		t.Errorf("recorded suppressions = %d, want 2", got)
	}
	byCheck := map[string]int{}
	for _, d := range res.Diags {
		byCheck[d.Check]++
	}
	if byCheck["directive"] != 4 {
		t.Errorf("directive errors = %d, want 4 (bare, reasonless, unknown name, stale)", byCheck["directive"])
	}
	if byCheck["lock-across-send"] != 4 {
		t.Errorf("live lock-across-send = %d, want 4 (malformed directives must not suppress)", byCheck["lock-across-send"])
	}
	// The two suppressing directives matched a finding; the wrong-name
	// one stayed unmatched (that is the stale-directive error).
	matched := 0
	for _, d := range res.Directives {
		if d.Matched > 0 {
			matched++
		}
	}
	if matched != 2 || len(res.Directives) != 3 {
		t.Errorf("matched directives = %d/%d, want 2/3", matched, len(res.Directives))
	}
}

// TestStaleDirectiveNeedsItsCheckToHaveRun: a directive is judged
// stale only by a run that included every check it names.
func TestStaleDirectiveNeedsItsCheckToHaveRun(t *testing.T) {
	file := filepath.Join("testdata", "src", "ignorecase.go")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := CheckSource(fset, file, src)
	if err != nil {
		t.Fatal(err)
	}
	res := RunPkg(fset, pkg, []*Check{realtimeCheck})
	for _, d := range res.Diags {
		if strings.Contains(d.Message, "matched no finding") {
			t.Errorf("a run of realtime alone judged another check's directive: %s", d)
		}
	}
}

// TestDirectiveCutsCallSummary: the directive inside conv.hangupLocked
// silences no finding on its own line — no lock is held there — yet it
// counts as matched, because it cut the park out of the summary its
// callers see; the suppression audit shows what it vouched for.
func TestDirectiveCutsCallSummary(t *testing.T) {
	res := runCorpusFile(t, filepath.Join("testdata", "src", "lockcase.go"))
	if len(res.Directives) != 1 || res.Directives[0].Matched != 1 {
		t.Fatalf("directives = %+v, want one, matched once", res.Directives)
	}
	if len(res.Ignored) != 1 || !strings.Contains(res.Ignored[0].Message, "call to lockcase.readQueue.up: cut from the may-park summary") {
		t.Errorf("suppressed = %+v, want the one cut call", res.Ignored)
	}
}

func runCorpusFile(t *testing.T, file string) *Result {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := CheckSource(fset, file, src)
	if err != nil {
		t.Fatalf("corpus file must type-check: %v", err)
	}
	return RunPkg(fset, pkg, Checks())
}

// TestSelfClean turns the analyzer on its own module: the repo must
// stay at zero unsuppressed diagnostics.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod, err := LoadModule(filepath.Join("..", ".."), false)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(mod, Checks())
	for _, d := range res.Diags {
		t.Errorf("unsuppressed: %s", d)
	}
	// The lock checks' exceptions are few enough to name: the four
	// frames where a conversation hands data or a hangup up its read
	// queue with Mu held.
	n := 0
	for _, d := range res.Directives {
		if slices.Contains(d.Checks, "lock-across-send") || slices.Contains(d.Checks, "lock-order") {
			n++
		}
	}
	if n > 5 {
		t.Errorf("%d directives for the lock checks, want at most 5", n)
	}
}
