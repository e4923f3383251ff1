package hotpath

// selfAppend recycles its destination: amortized, not per-call, growth.
//
//voxel:allocfree
func selfAppend(xs []int, n int) []int {
	xs = append(xs, n)
	return xs
}

// resliceAppend reuses the backing array through a reslice.
//
//voxel:allocfree
func resliceAppend(buf []byte, b []byte) []byte {
	buf = append(buf[:0], b...)
	return buf
}

var freeItems []*item

// warmup allocates only when the freelist is dry — the accepted cold
// path behind the pool.
//
//voxel:allocfree
func warmup() *item {
	if n := len(freeItems); n > 0 {
		it := freeItems[n-1]
		freeItems = freeItems[:n-1]
		return it
	}
	return &item{}
}

// pointerBox hands an existing pointer across an interface: no copy,
// no box.
//
//voxel:allocfree
func pointerBox(it *item) any {
	return any(it)
}

// captureFree closures that touch only their own parameters and locals
// carry no frame.
//
//voxel:allocfree
func captureFree() func(int) int {
	return func(n int) int { return n * 2 }
}

type timer struct {
	fired  int
	onFire func() // t.fire, bound once at construction
}

func (t *timer) fire() { t.fired++ }

func run(fn func()) { fn() }

// boundOnce calls a method directly and passes a func stored in a field:
// neither materializes a method value.
//
//voxel:allocfree
func boundOnce(t *timer) {
	t.fire()
	(t.fire)()
	run(t.onFire)
}
