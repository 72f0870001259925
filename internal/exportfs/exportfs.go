// Package exportfs implements the user-level relay file server of
// §6.1: it exports a piece of a process's name space across a network
// connection as 9P, and ImportConfig mounts such an export into a local
// name space. "Operations in the imported file tree are executed on the
// remote server and the results returned. As a result the name space
// of the remote machine appears to be exported into a local file tree."
//
// Serving goes through ns.PathNode, so every remote walk re-resolves in
// the exporter's mount table: importing /net from a gateway exposes
// everything mounted there, which is what makes the paper's
// Datakit-only terminal able to reach TCP through helix.
package exportfs

import (
	"strings"

	"repro/internal/ccache"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vclock"
	"repro/internal/vfs"
)

// Config sizes a multi-tenant export server. Only Clock must be set:
// the zero values of the rest export "/" with the default cache.
type Config struct {
	// Root is the exported subtree; "" means "/". The attach name is
	// joined beneath it.
	Root string
	// Clock drives the server's goroutines.
	Clock vclock.Clock
	// CacheBytes bounds the shared read cache; 0 means the ccache
	// default, negative disables caching entirely.
	CacheBytes int64
}

// Server is the multi-tenant gateway of §6.1: one exported name
// space, many connections. Each connection gets private fid, tag, and
// flush state; all of them dispatch through one bounded worker pool,
// round-robin so a hot tenant cannot starve the rest; and a shared
// cfs-style block cache sits between the protocol and the backing
// tree, so a thousand imports of one file cost one fill.
type Server struct {
	nsp   *ns.Namespace
	root  string
	cache *ccache.Cache
	srv   *ninep.Server
}

// NewServer returns a server exporting nsp per cfg. Connections are
// attached with ServeConn.
func NewServer(nsp *ns.Namespace, cfg Config) *Server {
	s := &Server{nsp: nsp, root: ns.Clean(cfg.Root)}
	if cfg.CacheBytes >= 0 {
		s.cache = ccache.New(ccache.Config{
			MaxBytes: cfg.CacheBytes,
			FragSize: ninep.MaxFData,
		})
	}
	s.srv = ninep.NewServer(s.attach, cfg.Clock)
	return s
}

// attach resolves one tenant's attach: the attach name joined beneath
// the exported root, resolved through the exporter's live name space,
// with the cache interposed.
func (s *Server) attach(uname, aname string) (vfs.Node, error) {
	p := s.root
	if aname != "" {
		p = ns.Clean(s.root + "/" + aname)
	}
	// Verify the path exists before handing out a node.
	if _, err := s.nsp.Walk(p); err != nil {
		return nil, err
	}
	var node vfs.Node = ns.NodeAt(s.nsp, p)
	if s.cache != nil {
		node = s.cache.WrapNode(node)
	}
	return node, nil
}

// ServeConn serves one accepted transport, blocking until it fails.
// Many ServeConn calls run concurrently against one Server; a
// returning connection clunks only its own fids.
func (s *Server) ServeConn(conn ninep.MsgConn) error {
	return s.srv.ServeConn(conn)
}

// Close releases the server's read cache, whose fragments would
// otherwise outlive it; the server's owner calls it at teardown.
// Connections still being served keep working, uncached.
func (s *Server) Close() {
	if s.cache != nil {
		s.cache.Release()
	}
}

// Cache exposes the shared read cache (nil when disabled), for stats
// and tests.
func (s *Server) Cache() *ccache.Cache { return s.cache }

// Ninep exposes the underlying 9P server, for per-connection stats.
func (s *Server) Ninep() *ninep.Server { return s.srv }

// Stats renders the gateway's stats file: the 9P server's scalar
// lines and per-connection bill, then the cache counters. Scalar
// lines parse with obs.ParseStats; the bill lines carry a space in
// the name field and are skipped, like per-conversation summaries.
func (s *Server) Stats() string {
	var b strings.Builder
	b.WriteString(s.srv.Stats())
	if s.cache != nil {
		b.WriteString(s.cache.StatsGroup().Render())
	}
	return b.String()
}

// Serve exports the subtree of nsp rooted at root over conn, its
// per-request goroutines driven by ck, blocking until the connection
// fails. The initial protocol that "establishes the root of the file
// tree being exported" is the 9P attach itself: the attach name is
// joined beneath root. It is the single-connection form: a throwaway
// Server per transport.
func Serve(conn ninep.MsgConn, nsp *ns.Namespace, root string, ck vclock.Clock) error {
	s := NewServer(nsp, Config{Root: root, Clock: ck})
	defer s.Close()
	return s.ServeConn(conn)
}

// ImportConfig mounts the tree exported on conn at mountpoint old in
// nsp, with bind flags (ns.MREPL, ns.MAFTER, ...) and mount profile
// cfg: the import command of §6.1. It returns the 9P client so the
// caller can Close it to unmount.
//
// The zero cfg mounts a device tree — one fragment RPC at a time,
// nothing speculative: an import typically carries live device files —
// /net of a gateway — where speculative I/O is unsafe. mnt.FileConfig
// mounts a plain file tree.
func ImportConfig(nsp *ns.Namespace, conn ninep.MsgConn, aname, old string, flag int, cfg mnt.Config) (*ninep.Client, error) {
	root, cl, err := mnt.MountConfig(conn, nsp.User(), aname, cfg)
	if err != nil {
		return nil, err
	}
	if err := nsp.MountNode(root, old, flag); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}
