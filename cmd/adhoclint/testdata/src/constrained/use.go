package constrained

type Box struct {
	mu Mutex
	n  int
}

func (b *Box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *Box) Reset() {
	b.n = 0 // want "b.n is guarded by b.mu"
}
