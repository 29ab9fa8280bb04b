// Package registry is a rapid-vet fixture for the snapshot-immutability
// check. The test registers Registry.Members and the Change fields as
// read-only sources before running the analyzer.
package registry

import "sort"

// Change mimics core.ViewChange: one slice and map shared by every reader.
type Change struct {
	Members []string
	Meta    map[string]string
}

// Registry mimics a snapshot holder like core.Cluster.
type Registry struct {
	change Change
}

// Members returns the shared member list.
func (r *Registry) Members() []string { return r.change.Members }

// Membership returns the shared member list and its length, as
// view.View.Membership returns two shared slices.
func (r *Registry) Membership() ([]string, int) { return r.change.Members, len(r.change.Members) }

func mutateOneOfTwoResults(r *Registry) {
	m, n := r.Membership()
	m[n-1] = "x" // want `assigns into Registry.Membership\(\)`
}

func mutateDirect(r *Registry) {
	r.Members()[0] = "x" // want `assigns into Registry.Members\(\)`
}

func mutateVar(r *Registry) {
	m := r.Members()
	m[0] = "x"         // want `assigns into Registry.Members\(\)`
	sort.Strings(m)    // want `sorts in place Registry.Members\(\)`
	_ = append(m, "y") // want `appends to Registry.Members\(\)`
}

func mutateField(c *Change) {
	c.Members[0] = "x"  // want `assigns into Change.Members`
	delete(c.Meta, "k") // want `deletes from Change.Meta`
}

// retarget mimics a probe scheduler diffing the subject list it was handed in
// place, while the engine that computed it still sends along it.
func retarget(c *Change, next []string) {
	copy(c.Members, next) // want `copies into Change.Members`
}

func cloneFirst(r *Registry) []string {
	m := append([]string(nil), r.Members()...)
	sort.Strings(m) // a clone is the caller's to mutate
	return m
}

func readOnly(r *Registry) int {
	m := r.Members()
	return len(m) // reads never trip the check
}

func allowed(r *Registry) {
	m := r.Members()
	m[0] = "x" //lint:allow snapshot fixture demonstrates the escape hatch
}

// rings mimics view.tables: copy-on-write tables that several Rings alias
// until one of them writes. The test registers it as a shared table type.
type rings struct {
	order []int
	pos   []int
	seqs  [][]int
}

// Ring mimics view.View.
type Ring struct {
	t      *rings
	shared bool
}

// own copies the tables before the first write.
//
// owned-tables: this is where they become owned.
func (r *Ring) own() {
	if !r.shared {
		return
	}
	r.t = &rings{order: append([]int(nil), r.t.order...), pos: append([]int(nil), r.t.pos...)}
	r.t.seqs = [][]int{r.t.order}
	r.shared = false
}

// Insert writes the tables after own.
//
// owned-tables: own comes first.
func (r *Ring) Insert(x int) {
	r.own()
	r.t.order = append(r.t.order, x)
	r.t.pos[0] = len(r.t.order)
	p := &r.t.pos[0]
	*p++
	seq := r.t.seqs[0]
	seq[0] = x
	sort.Ints(seq)
}

// Len only reads, which any function may.
func (r *Ring) Len() int {
	order := r.t.order
	return len(order) + r.t.pos[0] + len(r.t.seqs[0])
}

func (r *Ring) writesWithoutOwning(x int) {
	r.t.pos[0] = x                   // want `assigns into rings.pos, a copy-on-write table`
	r.t.order = nil                  // want `assigns rings.order`
	r.t.order = append(r.t.order, x) // want `assigns rings.order` `appends to rings.order`
	p := &r.t.pos[0]                 // want `takes the address of an element of rings.pos`
	*p = x
	copy(r.t.pos, r.t.order) // want `copies into rings.pos`
	seq := r.t.seqs[0]
	seq[0] = x           // want `assigns into rings.seqs`
	sort.Ints(r.t.order) // want `sorts in place rings.order`
	tail := r.t.order[1:]
	tail[0] = x //lint:allow snapshot fixture demonstrates the escape hatch
}
