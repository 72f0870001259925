package dnssrv

import (
	"strings"

	"repro/internal/devtree"
	"repro/internal/vfs"
)

// Node returns the /net/dns file (§4.2): "a client writes a request of
// the form domain-name type ... The client reads /net/dns to retrieve
// the records", one line per read.
func Node(res *Resolver, owner string) vfs.Node {
	return devtree.QueryFile(devtree.MkFile("dns", owner, 0666),
		func(req string) ([]string, error) {
			name, typStr, ok := strings.Cut(strings.TrimSpace(req), " ")
			if !ok {
				typStr = "ip"
			}
			qtype, okT := ParseType(strings.TrimSpace(typStr))
			if name == "" || !okT {
				return nil, vfs.ErrBadArg
			}
			rrs, err := res.Lookup(name, qtype)
			if err != nil {
				return nil, err
			}
			lines := make([]string, len(rrs))
			for i, rr := range rrs {
				lines[i] = rr.String()
			}
			return lines, nil
		})
}
