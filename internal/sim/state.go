package sim

import (
	"fmt"
	"reflect"
	"strings"
	"unsafe"
)

// This file is the generic state-capture engine behind world snapshot/fork:
// a reflection-based deep capture of every mutable object reachable from a
// set of root pointers, restorable in place.
//
// Capture walks the object graph through pointers, interfaces, slices,
// arrays and maps, taking a shallow typed copy of each visited object keyed
// by (address, type). Restore writes those copies back into the live
// objects, rolling the whole graph back to its capture-time state. Because
// the copies are typed and written back with reflect.Value.Set, the garbage
// collector sees every save and restore (write barriers included), and the
// copies themselves keep each captured object alive between Capture and the
// final Restore.
//
// The walk also lists every *RNG it captures (Capture.RNGs). Restore writes
// in place, so those pointers stay the streams of the restored graph: a
// forked world rekeys its randomness from the list instead of walking the
// graph again.
//
// What the engine deliberately does NOT do:
//
//   - It never looks inside function values. A closure's code pointer is
//     saved and restored as part of its owner's bytes — closures created
//     before the snapshot keep working after a restore because everything
//     they reference through struct fields is rolled back too — but a
//     mutable local captured ONLY by a closure is invisible to the walk and
//     will not be rolled back. Snapshot-compatible code must keep mutable
//     state in struct fields reachable from a root (internal/simtest's fork
//     swarm enforces this empirically across randomized worlds). Events
//     scheduled with Scheduler.AtArg need no such care for their argument:
//     it is a field of the queued event, so the walk sees it (and follows a
//     pointer argument) like any other state.
//   - It does not traverse into channels or strings (immutable/opaque).
//   - It only manages objects whose types live in this module (or in
//     math/rand, so *rand.Rand internals — the PRNG stream position — are
//     captured without changing the algorithm). Pointers to foreign types
//     (testing.T, os.File, io.Writer implementations, …) are restored as
//     pointers but their pointees are left alone: rolling back a *testing.T
//     or a file's state would be actively wrong.
//
// Slices are saved as regions: the backing array contents over [0:cap] are
// copied out and restored, so post-snapshot appends within capacity and
// arena bump allocations roll back cleanly. Aliasing subslices restore
// consistently because every region's bytes were captured at the same
// instant. Maps are saved as key/value pairs and restored by clearing the
// live map and reinserting — the map object itself (not a replacement) is
// mutated, so every pointer to it stays valid.
//
// The engine is single-threaded, like the simulation it captures.

// modulePrefix gates which pointee types the engine manages.
const modulePrefix = "injectable"

// managedType reports whether the engine should capture objects of type t.
func managedType(t reflect.Type) bool {
	pp := t.PkgPath()
	if pp == "" {
		// Unnamed composites (*[]byte, *struct{…}) carry no package; they
		// only arise from module code in practice.
		return true
	}
	if pp == modulePrefix || strings.HasPrefix(pp, modulePrefix+"/") {
		return true
	}
	// math/rand's rngSource — reached through sim.RNG — is the one foreign
	// type whose state is simulation state.
	return pp == "math/rand"
}

// objKey identifies a captured object: distinct types may share an address
// (a struct and its first field), so the type is part of the key.
type objKey struct {
	ptr unsafe.Pointer
	typ reflect.Type
}

// savedObj pairs a live object with its capture-time shallow copy.
type savedObj struct {
	live reflect.Value // addressable value over the live object
	snap reflect.Value // detached copy taken at capture time
}

// savedRegion is one slice backing-array region [0:cap].
type savedRegion struct {
	live reflect.Value // slice over the live backing array, len == cap
	snap reflect.Value // copied contents
}

// savedMap is one live map with its capture-time pairs.
type savedMap struct {
	live reflect.Value
	keys []reflect.Value
	vals []reflect.Value
}

// Capture is a restorable deep snapshot of the object graph reachable from
// a set of roots. Create with CaptureRoots; Restore may be called any
// number of times (each call rolls the graph back to the capture instant).
type Capture struct {
	roots   []any
	objs    []savedObj
	regions []savedRegion
	maps    []savedMap
	rngs    []*RNG
}

// walker performs one capture's graph traversal.
type walker struct {
	cap     *Capture
	seen    map[objKey]struct{}
	mapSeen map[unsafe.Pointer]struct{}
}

// CaptureRoots deep-captures everything reachable from the given root
// pointers. Roots must be non-nil pointers to module-managed objects.
func CaptureRoots(roots ...any) *Capture {
	c := &Capture{roots: roots}
	w := &walker{
		cap:     c,
		seen:    make(map[objKey]struct{}),
		mapSeen: make(map[unsafe.Pointer]struct{}),
	}
	w.walkRoots(roots)
	return c
}

func (w *walker) walkRoots(roots []any) {
	for _, r := range roots {
		if r == nil {
			continue
		}
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Ptr {
			panic(fmt.Sprintf("sim: snapshot root must be a pointer, got %T", r))
		}
		w.walk(v)
	}
}

var rngType = reflect.TypeOf(RNG{})

// walk visits one value. v may be unaddressable (a map key/value copy);
// traversal only needs the pointer values it contains.
func (w *walker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		elemT := v.Type().Elem()
		if !managedType(elemT) {
			return
		}
		ptr := unsafe.Pointer(v.Pointer())
		key := objKey{ptr, elemT}
		if _, ok := w.seen[key]; ok {
			return
		}
		w.seen[key] = struct{}{}
		live := reflect.NewAt(elemT, ptr).Elem()
		snap := reflect.New(elemT).Elem()
		snap.Set(live)
		w.cap.objs = append(w.cap.objs, savedObj{live: live, snap: snap})
		if elemT == rngType {
			w.cap.rngs = append(w.cap.rngs, (*RNG)(ptr))
		}
		w.walk(live)

	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		switch e.Kind() {
		case reflect.Ptr, reflect.Map, reflect.Slice:
			w.walk(e)
		}
		// Non-pointer concretes boxed in an interface are unaddressable and
		// immutable through the interface; nothing to capture.

	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() && f.CanAddr() {
				// De-restrict an unexported field so slices/maps found under
				// it can be copied and restored.
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			w.walk(f)
		}

	case reflect.Array:
		if !hasPointers(v.Type().Elem()) {
			return // bytes captured with the owning object
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}

	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 {
			return
		}
		elemT := v.Type().Elem()
		full := v.Slice3(0, v.Cap(), v.Cap())
		ptr := unsafe.Pointer(full.Pointer())
		key := objKey{ptr, reflect.ArrayOf(v.Cap(), elemT)}
		if _, ok := w.seen[key]; !ok {
			w.seen[key] = struct{}{}
			snap := reflect.MakeSlice(v.Type(), v.Cap(), v.Cap())
			reflect.Copy(snap, full)
			w.cap.regions = append(w.cap.regions, savedRegion{live: full, snap: snap})
		}
		if !hasPointers(elemT) {
			return
		}
		// Traverse only the live prefix: elements past len are retained
		// garbage from previous use, not reachable state.
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}

	case reflect.Map:
		if v.IsNil() {
			return
		}
		ptr := unsafe.Pointer(v.Pointer())
		if _, ok := w.mapSeen[ptr]; ok {
			return
		}
		w.mapSeen[ptr] = struct{}{}
		w.cap.maps = append(w.cap.maps, savedMap{live: v})
		sm := &w.cap.maps[len(w.cap.maps)-1]
		it := v.MapRange()
		kt, vt := v.Type().Key(), v.Type().Elem()
		for it.Next() {
			k := reflect.New(kt).Elem()
			k.Set(it.Key())
			val := reflect.New(vt).Elem()
			val.Set(it.Value())
			sm.keys = append(sm.keys, k)
			sm.vals = append(sm.vals, val)
			w.walk(k)
			w.walk(val)
		}
	}
}

// hasPointers reports whether values of t can reference other objects the
// walk must visit. Pointer-free element types (bytes, floats, plain
// structs) are captured wholesale by the region/owner copy and need no
// per-element traversal.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Ptr, reflect.Interface, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return t.Kind() != reflect.String // strings are immutable; no visit needed
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	default:
		return false
	}
}

// Restore rolls every captured object, slice region and map back to its
// capture-time state. Objects created after the capture are simply dropped
// from the graph (whatever pointed to them is rolled back); the garbage
// collector reclaims them.
func (c *Capture) Restore() {
	for i := range c.objs {
		c.objs[i].live.Set(c.objs[i].snap)
	}
	for i := range c.regions {
		reflect.Copy(c.regions[i].live, c.regions[i].snap)
	}
	for i := range c.maps {
		m := &c.maps[i]
		// Clear additions, then reinstate capture-time pairs (overwriting
		// mutated values). The map object itself is mutated in place, so
		// every live reference to it stays valid.
		keys := m.live.MapKeys()
		for _, k := range keys {
			m.live.SetMapIndex(k, reflect.Value{})
		}
		for j := range m.keys {
			m.live.SetMapIndex(m.keys[j], m.vals[j])
		}
	}
}

// Objects reports how many distinct objects the capture holds (testing and
// diagnostics).
func (c *Capture) Objects() int { return len(c.objs) }

// RNGs lists every random stream the capture holds, each once, in walk
// order. Restore writes streams back in place, so the list stays valid for
// the captured graph across any number of restores.
func (c *Capture) RNGs() []*RNG { return c.rngs }
