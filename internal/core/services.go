package core

import (
	"errors"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/devtree"
	"repro/internal/dialer"
	"repro/internal/exportfs"
	"repro/internal/ftp"
	"repro/internal/mnt"
	"repro/internal/ninep"
	"repro/internal/ns"
	"repro/internal/vfs"
)

// Handler serves one accepted call. conn is the open connection; the
// namespace is a fresh clone for the serving process, as the Plan 9
// listener runs the owner's profile to build a name space before
// starting the service (§6.1).
type Handler func(nsp *ns.Namespace, conn *dialer.Conn)

// Serve announces addr (e.g. "il!*!9fs" or "net!*!echo") and
// dispatches each call to handler in its own goroutine — the paper's
// listener, its inetd equivalent. It returns a stop function.
//
// mods, if given, are line-discipline specs pushed on every accepted
// conversation before its data file opens (bottom-up, §2.4.1), so the
// service runs its module stack from the first byte; dialers must
// push the same specs in the same order.
func (m *Machine) Serve(addr string, handler Handler, mods ...string) (func(), error) {
	l, err := dialer.Announce(m.NS, addr)
	if err != nil {
		return nil, err
	}
	ck := m.World.Clock()
	done := make(chan struct{})
	ck.Go(func() {
		for {
			call, err := l.Listen()
			if err != nil {
				// A full conversation table is transient — a dial
				// storm has every slot busy until handlers hang up.
				// Back off and keep listening; anything else means
				// the announcement itself is gone.
				if !errors.Is(err, vfs.ErrInUse) {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				ck.Sleep(time.Millisecond)
				continue
			}
			select {
			case <-done:
				call.Reject("shutting down")
				return
			default:
			}
			ck.Go(func() {
				// Arm the conversation before data opens: once the
				// dialer starts writing, both ends must already run
				// the same module stack.
				if len(mods) > 0 {
					if err := call.Push(mods...); err != nil {
						call.Reject("cannot push modules")
						return
					}
				}
				conn, err := call.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				handler(m.NS.Clone(), conn)
			})
		}
	})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			l.Close()
		})
	}
	m.onClose(stop)
	return stop, nil
}

// ServeEcho runs the echo service of §5.2's example listener.
func (m *Machine) ServeEcho(addr string) (func(), error) {
	return m.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
		buf := make([]byte, 8192)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				if _, werr := conn.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	})
}

// ServeDiscard runs the discard service.
func (m *Machine) ServeDiscard(addr string) (func(), error) {
	return m.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
		io.Copy(io.Discard, conn)
	})
}

// msgConnFor picks 9P framing by network: IL, Datakit/URP, and
// Cyclone preserve delimiters; TCP needs the marshaling adapter
// (§2.1).
func msgConnFor(conn *dialer.Conn) ninep.MsgConn {
	if strings.HasPrefix(conn.Dir, "/net/tcp/") {
		return ninep.NewStreamConn(conn)
	}
	return ninep.NewDelimConn(conn)
}

// ServeExportfs announces the exportfs service (§6.1): every accepted
// call joins this machine's shared multi-tenant gateway server — one
// name space, one worker pool, one cfs-style read cache — rather than
// getting a private relay. The attach name selects the exported
// subtree; /net/export/stats carries the per-connection bill.
func (m *Machine) ServeExportfs(addr string, mods ...string) (func(), error) {
	srv, err := m.exportSrv()
	if err != nil {
		return nil, err
	}
	return m.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
		srv.ServeConn(msgConnFor(conn))
	}, mods...)
}

// exportSrv lazily builds the machine's shared export server and
// mounts its stats file at /net/export/stats. The server is published
// under m.mu by whoever builds it; the mount walks the name space —
// RPCs, when /net is imported — so it runs with the lock released.
func (m *Machine) exportSrv() (*exportfs.Server, error) {
	m.mu.Lock()
	srv, built := m.export, false
	if srv == nil {
		srv, built = exportfs.NewServer(m.NS, exportfs.Config{Clock: m.World.Clock()}), true
		m.export = srv
	}
	m.mu.Unlock()
	if !built {
		return srv, nil
	}
	if err := m.mountExportStats(srv); err != nil {
		m.mu.Lock()
		m.export = nil // as before the build: a later call tries again
		m.mu.Unlock()
		return nil, err
	}
	return srv, nil
}

// mountExportStats serves srv's per-connection bill as a file.
func (m *Machine) mountExportStats(srv *exportfs.Server) error {
	if err := m.Root.MkdirAll("net/export", 0775); err != nil {
		return err
	}
	if err := m.Root.WriteFile("net/export/stats", nil, 0444); err != nil {
		return err
	}
	stats := devtree.TextFile(devtree.MkFile("stats", m.Name, 0444),
		func() (string, error) { return srv.Stats(), nil })
	return m.NS.MountNode(stats, "/net/export/stats", ns.MREPL)
}

// Exportfs returns the machine's shared export server, nil before
// ServeExportfs has announced it.
func (m *Machine) Exportfs() *exportfs.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.export
}

// Import dials the exportfs service on a remote machine and mounts
// its subtree at old with the given bind flag: the import command of
// §6.1. dest is a dial string such as "net!helix!exportfs". The mount
// is a device tree — one fragment RPC at a time, nothing speculative —
// because imports usually carry live device files (see ImportConfig).
func (m *Machine) Import(dest, remotePath, old string, flag int) (*ninep.Client, error) {
	return m.ImportConfig(dest, remotePath, old, flag, mnt.Config{})
}

// ImportConfig is Import with an explicit mount profile —
// mnt.FileConfig() for a plain file tree, the zero Config for a device
// tree — and the line disciplines to push on the conversation. An
// import is a remote mount whose attach name is the path to export.
func (m *Machine) ImportConfig(dest, remotePath, old string, flag int, cfg mnt.Config, mods ...string) (*ninep.Client, error) {
	aname := strings.TrimPrefix(ns.Clean(remotePath), "/")
	return m.MountRemoteConfig(dest, aname, old, flag, cfg, mods...)
}

// MountRemote dials dest and mounts the 9P tree served there (e.g. a
// file server speaking 9P directly on a Cyclone link).
func (m *Machine) MountRemote(dest, aname, old string, flag int) (*ninep.Client, error) {
	return m.MountRemoteConfig(dest, aname, old, flag, mnt.Config{})
}

// MountRemoteConfig is MountRemote with an explicit mount profile: dial
// dest on the machine's clock, push the line disciplines mods (§2.4.1)
// bottom-up before the 9P session starts — {"compress", "batch 2048
// 2ms"} puts compress nearest the wire, and the serving end must push
// the same specs in the same order, as Serve9P(addr, root, mods...)
// does — attach and bind over the conversation, and book the client
// with the machine. A failed mount leaves the conversation closed.
func (m *Machine) MountRemoteConfig(dest, aname, old string, flag int, cfg mnt.Config, mods ...string) (*ninep.Client, error) {
	if cfg.Client.Clock == nil {
		cfg.Client.Clock = m.World.Clock()
	}
	conn, err := dialer.Dial(m.NS, dest)
	if err != nil {
		return nil, err
	}
	if err := conn.Push(mods...); err != nil {
		conn.Close()
		return nil, err
	}
	cl, err := exportfs.ImportConfig(m.NS, msgConnFor(conn), aname, old, flag, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	m.addMount(cl)
	return cl, nil
}

// Serve9P serves a subtree of this machine's name space as a plain 9P
// file service (the "9fs" service a file server exposes). Like the
// exportfs service, all calls share one multi-tenant server and its
// read cache, re-rooted at root.
func (m *Machine) Serve9P(addr, root string, mods ...string) (func(), error) {
	srv := exportfs.NewServer(m.NS, exportfs.Config{
		Root:  root,
		Clock: m.World.Clock(),
	})
	return m.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
		srv.ServeConn(msgConnFor(conn))
	}, mods...)
}

// ServeFTP runs the FTP service of §6.2 (the "remote system" end),
// serving root from this machine's name space.
func (m *Machine) ServeFTP(addr, root string, cfg ftp.ServerConfig) (func(), error) {
	addrs := m.Stack.Addrs()
	if len(addrs) == 0 {
		return nil, vfs.ErrNoNet
	}
	ann := ftp.MachineAnnouncer{NS: m.NS, HostAddr: addrs[0].String()}
	cfg.Root = root
	return m.Serve(addr, func(nsp *ns.Namespace, conn *dialer.Conn) {
		ftp.ServeSession(nsp, conn, ann, cfg)
	})
}

// MountFTP is the ftpfs command: it dials the FTP port of a remote
// system, logs in, sets image mode, and mounts the remote file system
// (conventionally onto /n/ftp).
func (m *Machine) MountFTP(dest, user, pass, old string) (*ftp.FS, error) {
	fs, err := ftp.Dial(m.NS, m.World.Clock(), dest, user, pass)
	if err != nil {
		return nil, err
	}
	if err := m.NS.MountDevice(fs, "", old, ns.MREPL); err != nil {
		fs.Close()
		return nil, err
	}
	m.onClose(func() { fs.Close() })
	return fs, nil
}
