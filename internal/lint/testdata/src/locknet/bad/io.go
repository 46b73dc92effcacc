package bad

import (
	"io"
	"net"
	"sync"
)

// Greet writes through an io helper with the lock held: io.WriteString
// blocks on the conn exactly like a direct Write.
func (p *Peer) Greet(s string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := io.WriteString(p.conn, s) // want "io.WriteString on net.Conn p.conn while holding mutex p.mu"
	return err
}

// framed hides a conn behind an io.ReadWriter field.
type framed struct {
	mu sync.Mutex
	rw io.ReadWriter
}

func newFramed(c net.Conn) *framed { return &framed{rw: c} }

// Flush writes through the wrapped-conn field with the lock held.
func (f *framed) Flush(b []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.rw.Write(b) // want "f.rw.Write on net.Conn while holding mutex f.mu"
	return err
}
