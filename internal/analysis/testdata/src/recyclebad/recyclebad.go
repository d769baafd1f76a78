// Package recyclebad is a lint fixture for the recycle analyzer. It
// declares its own TxPool (the rule matches by receiver type name, not
// package path) and mixes leaking call sites with clean ones.
package recyclebad

// Transmission stands in for fabric.Transmission.
type Transmission struct {
	used bool
}

// TxPool stands in for fabric.TxPool.
type TxPool struct {
	free []*Transmission
}

// Get takes from the free list.
func (p *TxPool) Get() *Transmission {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		return t
	}
	return new(Transmission)
}

// Put returns to the free list.
func (p *TxPool) Put(t *Transmission) { p.free = append(p.free, t) }

var sink *Transmission

// Discard drops the pool value on the floor.
func Discard(p *TxPool) {
	p.Get() // want:recycle
}

// Underscore explicitly discards the pool value.
func Underscore(p *TxPool) {
	_ = p.Get() // want:recycle
}

// BranchLeak recycles on one branch and falls off the end on the other.
func BranchLeak(p *TxPool, cond bool) {
	t := p.Get() // want:recycle
	if cond {
		p.Put(t)
	}
}

// EarlyReturn exits without consuming on the early path.
func EarlyReturn(p *TxPool, cond bool) *Transmission {
	t := p.Get() // want:recycle
	if cond {
		return nil
	}
	return t
}

// LoopLeak consumes only inside a possibly-zero-trip loop.
func LoopLeak(p *TxPool, n int) {
	t := p.Get() // want:recycle
	for i := 0; i < n; i++ {
		p.Put(t)
		return
	}
}

// Clean recycles on every path, but only after binding a local.
func Clean(p *TxPool, cond bool) {
	t := p.Get() // want:recycle
	if cond {
		p.Put(t)
		return
	}
	p.Put(t)
}

// Stored hands the value to a slice slot at the call site.
func Stored(p *TxPool, slots []*Transmission) {
	slots[0] = p.Get()
}

// Returned hands the value to the caller.
func Returned(p *TxPool) *Transmission {
	return p.Get()
}

// Global keeps the value reachable in a package-level variable.
func Global(p *TxPool) {
	sink = p.Get()
}

// Alias hands the value off through another name, but only after
// binding a local: the rule does not follow locals.
func Alias(p *TxPool) {
	t := p.Get() // want:recycle
	u := t
	p.Put(u)
}

// Nested consumes the value as a direct call argument.
func Nested(p *TxPool) {
	p.Put(p.Get())
}
