package sim

import (
	"reflect"
	"testing"
)

// The engine test types live in this package, so they are module-managed.

type stateLeaf struct {
	n    int
	name string
}

type stateNode struct {
	value   int
	leaf    *stateLeaf
	peers   []*stateLeaf
	scores  map[string]int
	buf     []byte
	self    *stateNode // cycle
	labels  [2]string
	cb      func() int
	tracker any
}

func TestCaptureRestoreStruct(t *testing.T) {
	leaf := &stateLeaf{n: 1, name: "a"}
	n := &stateNode{value: 10, leaf: leaf}
	n.self = n
	cap := CaptureRoots(n)

	n.value = 99
	leaf.n = 77
	n.leaf = &stateLeaf{n: 5}
	cap.Restore()

	if n.value != 10 || n.leaf != leaf || leaf.n != 1 {
		t.Fatalf("restore: value=%d leaf=%p n=%d", n.value, n.leaf, leaf.n)
	}
}

func TestCaptureRestoreSliceRegion(t *testing.T) {
	n := &stateNode{buf: make([]byte, 3, 8)}
	copy(n.buf, []byte{1, 2, 3})
	cap := CaptureRoots(n)

	// Mutate in place, append within capacity, then reslice.
	n.buf[0] = 9
	n.buf = append(n.buf, 4, 5)
	cap.Restore()

	if len(n.buf) != 3 || n.buf[0] != 1 || n.buf[1] != 2 || n.buf[2] != 3 {
		t.Fatalf("restore: buf=%v", n.buf)
	}
	// The capacity region is restored too: re-appending reproduces the
	// original bytes deterministically only if the caller rewrites them,
	// but the header must be back to len 3.
	if cap.Objects() == 0 {
		t.Fatal("expected captured objects")
	}
}

func TestCaptureRestorePointerSlice(t *testing.T) {
	a, b := &stateLeaf{n: 1}, &stateLeaf{n: 2}
	n := &stateNode{peers: []*stateLeaf{a, b}}
	cap := CaptureRoots(n)

	a.n = 100
	n.peers = append(n.peers[:1], &stateLeaf{n: 3})
	cap.Restore()

	if len(n.peers) != 2 || n.peers[0] != a || n.peers[1] != b {
		t.Fatalf("restore: peers=%v", n.peers)
	}
	if a.n != 1 || b.n != 2 {
		t.Fatalf("restore: a.n=%d b.n=%d", a.n, b.n)
	}
}

func TestCaptureRestoreMap(t *testing.T) {
	n := &stateNode{scores: map[string]int{"x": 1, "y": 2}}
	m := n.scores
	cap := CaptureRoots(n)

	n.scores["x"] = 50
	n.scores["z"] = 3
	delete(n.scores, "y")
	cap.Restore()

	if !reflect.DeepEqual(n.scores, map[string]int{"x": 1, "y": 2}) {
		t.Fatalf("restore: scores=%v", n.scores)
	}
	// The same map object was restored in place, not replaced.
	m["w"] = 9
	if n.scores["w"] != 9 {
		t.Fatal("map object identity lost on restore")
	}
}

func TestCaptureRestoreFuncField(t *testing.T) {
	calls := &stateLeaf{}
	n := &stateNode{}
	n.cb = func() int { calls.n++; return calls.n }
	// calls is reachable only through the closure, which the engine does
	// not traverse — register it as its own root, the pattern snapshot-
	// compatible code uses.
	cap := CaptureRoots(n, calls)

	n.cb()
	n.cb()
	orig := n.cb
	n.cb = func() int { return -1 }
	cap.Restore()

	if calls.n != 0 {
		t.Fatalf("restore: closure state n=%d, want 0", calls.n)
	}
	if reflect.ValueOf(n.cb).Pointer() != reflect.ValueOf(orig).Pointer() {
		t.Fatal("func field not restored to the original closure")
	}
	if got := n.cb(); got != 1 {
		t.Fatalf("restored closure call = %d, want 1", got)
	}
}

func TestCaptureRestoreInterfaceField(t *testing.T) {
	inner := &stateLeaf{n: 4}
	n := &stateNode{tracker: inner}
	cap := CaptureRoots(n)

	inner.n = 40
	n.tracker = "replaced"
	cap.Restore()

	if n.tracker != any(inner) || inner.n != 4 {
		t.Fatalf("restore: tracker=%v inner.n=%d", n.tracker, inner.n)
	}
}

func TestRestoreIsRepeatable(t *testing.T) {
	n := &stateNode{value: 1, scores: map[string]int{"a": 1}}
	cap := CaptureRoots(n)
	for i := 0; i < 3; i++ {
		n.value = 100 + i
		n.scores["b"] = i
		cap.Restore()
		if n.value != 1 || len(n.scores) != 1 || n.scores["a"] != 1 {
			t.Fatalf("restore %d: value=%d scores=%v", i, n.value, n.scores)
		}
	}
}

func TestCaptureRNGs(t *testing.T) {
	type holder struct {
		g     *RNG
		child *RNG
		again *RNG
		bag   map[string]*RNG
	}
	h := &holder{g: NewRNG(1)}
	h.child = h.g.Child("c")
	h.again = h.child // reached twice, listed once
	h.bag = map[string]*RNG{"m": h.g.Child("m")}
	seen := map[*RNG]int{}
	for _, g := range CaptureRoots(h).RNGs() {
		seen[g]++
	}
	if len(seen) != 3 || seen[h.g] != 1 || seen[h.child] != 1 || seen[h.bag["m"]] != 1 {
		t.Fatalf("capture listed %v, want each of the 3 RNGs once", seen)
	}
}
