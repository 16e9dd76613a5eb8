package incr

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/rctree"
)

// NodeID aliases rctree.NodeID; EditTree preserves the IDs of the tree it
// was built from, and assigns fresh ascending IDs to grown/grafted nodes.
type NodeID = rctree.NodeID

// Root is the input node, as in rctree.
const Root = rctree.Root

// enode is the mutable per-node record of the overlay.
type enode struct {
	name     string
	parent   NodeID
	kind     rctree.EdgeKind
	edgeR    float64 // resistance of the element to the parent
	edgeC    float64 // distributed capacitance of the element (lines only)
	nodeC    float64 // lumped capacitance at the node
	children []NodeID
	dead     bool // pruned; the slot stays so NodeIDs remain stable
}

// cachedTimes memoizes one output's query under a generation stamp.
type cachedTimes struct {
	gen uint64
	tm  rctree.Times
}

// EditTree is a mutable overlay over an RC tree that answers characteristic-
// time queries in O(depth) and absorbs local edits in O(depth) by maintaining
// per-node subtree aggregates (see the package documentation for the math).
// The zero value is not usable; obtain one from New.
//
// EditTree is not safe for concurrent use.
type EditTree struct {
	nodes []enode
	// byName is the overlay's private name map, nil until the first Grow,
	// Graft or Prune; until then Lookup reads src's immutable index, which
	// names exactly the overlay's nodes, so New and Clone copy no map.
	byName  map[string]NodeID
	src     *rctree.Tree
	outputs []NodeID
	s0      []float64 // subtree capacitance (incl. own line C)
	s1      []float64 // subtree Σ C·(Rkk − P(v)); s1[Root] == TP
	gen     uint64    // bumped on every mutation; stamps the query cache
	alive   int
	edits   int                    // edits since the last full aggregate pass
	maxMag  float64                // largest aggregate delta magnitude since that pass
	cache   map[NodeID]cachedTimes // allocated by the first Times
	path    []NodeID               // scratch for root-path walks
	// slab backs the children lists New or Clone built; CloneInto reuses it.
	slab []NodeID
}

// New builds an overlay on t. The tree is copied (t stays immutable and may
// keep serving other readers); node IDs, names and designated outputs carry
// over unchanged.
func New(t *rctree.Tree) *EditTree {
	n := t.NumNodes()
	et := &EditTree{
		nodes:   make([]enode, n),
		src:     t,
		outputs: append([]NodeID(nil), t.Outputs()...),
		s0:      make([]float64, n),
		s1:      make([]float64, n),
		alive:   n,
	}
	cols := t.Columns()
	slab := make([]NodeID, 0, max(n-1, 0))
	for i := 0; i < n; i++ {
		id := NodeID(i)
		et.nodes[i] = enode{
			name:     cols.Names[i],
			parent:   NodeID(cols.Parent[i]),
			kind:     rctree.EdgeKind(cols.Kind[i]),
			edgeR:    cols.EdgeR[i],
			edgeC:    cols.EdgeC[i],
			nodeC:    cols.NodeC[i],
			children: slabAppend(&slab, t.Children(id)),
		}
	}
	et.slab = slab
	et.recomputeAggregates()
	return et
}

// slabAppend copies kids onto the end of *slab and returns the copy as a
// capacity-limited window, so the children of every node share one
// allocation: an append to one node's window reallocates that node's slice
// alone, and an in-place delete stays inside its own range.
func slabAppend(slab *[]NodeID, kids []NodeID) []NodeID {
	a := len(*slab)
	*slab = append(*slab, kids...)
	b := len(*slab)
	return (*slab)[a:b:b]
}

// ownNames gives the overlay its private name map before the first edit
// that adds or frees a name. No node has been grown or pruned yet, so the
// nodes are exactly src's.
func (et *EditTree) ownNames() {
	if et.byName != nil {
		return
	}
	et.byName = make(map[string]NodeID, len(et.nodes))
	for i := range et.nodes {
		et.byName[et.nodes[i].name] = NodeID(i)
	}
	et.src = nil
}

// Clone returns an independent deep copy of the overlay: same node IDs,
// names, designated outputs and maintained aggregates, but no shared mutable
// storage — edits to either side never show through to the other. The query
// memo does not carry over (the clone re-derives it on demand), and a tree
// that was never grown or pruned shares its source's immutable name index
// instead of copying a map. O(n).
//
// Clone is the building block for what-if trials: snapshot the tree, probe an
// edit on the copy, and discard it — the original keeps serving readers. A
// clone and its source may be read concurrently, but each side's mutations
// (including Times, which fills a memo) must stay single-goroutine, as usual.
func (et *EditTree) Clone() *EditTree { return et.CloneInto(nil) }

// CloneInto is Clone into dst's storage: dst becomes the clone, reusing its
// slices, children slab and (cleared) query memo where they are large
// enough, so a trial loop that clones the same net again and again stops
// allocating for it. dst must be a tree nobody reads any more; a nil dst
// allocates, as Clone does.
func (et *EditTree) CloneInto(dst *EditTree) *EditTree {
	if dst == nil {
		dst = &EditTree{}
	}
	// Each non-root node is listed as a child at most once, so one slab of
	// len(nodes) holds every children list.
	slab := dst.slab[:0]
	if cap(slab) < len(et.nodes) {
		slab = make([]NodeID, 0, len(et.nodes))
	}
	cache := dst.cache
	clear(cache)
	*dst = EditTree{
		nodes:   append(dst.nodes[:0], et.nodes...),
		byName:  maps.Clone(et.byName), // nil while the index is src's
		src:     et.src,
		outputs: append(dst.outputs[:0], et.outputs...),
		s0:      append(dst.s0[:0], et.s0...),
		s1:      append(dst.s1[:0], et.s1...),
		gen:     et.gen,
		alive:   et.alive,
		edits:   et.edits,
		maxMag:  et.maxMag,
		cache:   cache,
		path:    dst.path[:0],
	}
	for i := range dst.nodes {
		dst.nodes[i].children = slabAppend(&slab, et.nodes[i].children)
	}
	dst.slab = slab
	return dst
}

// recomputeAggregates rebuilds s0 and s1 from the element values in one
// bottom-up pass — the full-recompute fallback. Node storage is topological
// (parents precede children, for grafted nodes too), so a reverse index walk
// visits children first.
func (et *EditTree) recomputeAggregates() {
	for i := range et.s0 {
		et.s0[i], et.s1[i] = 0, 0
	}
	for i := len(et.nodes) - 1; i >= 1; i-- {
		n := &et.nodes[i]
		if n.dead {
			continue
		}
		et.s0[i] += n.nodeC + n.edgeC
		et.s1[i] += n.edgeR * (et.s0[i] - n.edgeC/2)
		et.s0[n.parent] += et.s0[i]
		et.s1[n.parent] += et.s1[i]
	}
	et.s0[Root] += et.nodes[Root].nodeC
	et.edits = 0
	et.maxMag = 0
}

// afterEdit invalidates query caches and decides when to pay the O(n) full
// pass that squashes accumulated floating-point drift. Two triggers:
//
//   - density: the edit count crosses the live node count (one full tree's
//     worth of O(depth) updates), bounding slow accumulation;
//   - cancellation: the largest delta magnitude applied since the last pass
//     dwarfs the current aggregate scale — a transient huge edit that was
//     reverted leaves absolute error ~maxMag·2⁻⁵², which must stay below
//     1e-9 of the surviving scale for queries to remain trustworthy.
//
// mag is the caller's bound on the absolute s0/s1 change of this edit.
func (et *EditTree) afterEdit(mag float64) {
	et.gen++
	et.edits++
	if mag > et.maxMag {
		et.maxMag = mag
	}
	scale := math.Abs(et.s1[Root]) + math.Abs(et.s0[Root]) + 1
	if et.edits >= et.alive || et.maxMag > 1e6*scale {
		et.recomputeAggregates()
	}
}

// pathFromRoot returns the node sequence input→j in scratch storage. The
// slice is invalidated by the next call.
func (et *EditTree) pathFromRoot(j NodeID) []NodeID {
	p := et.path[:0]
	for x := j; ; x = et.nodes[x].parent {
		p = append(p, x)
		if x == Root {
			break
		}
	}
	for i, k := 0, len(p)-1; i < k; i, k = i+1, k-1 {
		p[i], p[k] = p[k], p[i]
	}
	et.path = p
	return p
}

// checkNode validates that id names a live node.
func (et *EditTree) checkNode(id NodeID) error {
	if int(id) < 0 || int(id) >= len(et.nodes) {
		return fmt.Errorf("incr: node %d out of range", id)
	}
	if et.nodes[id].dead {
		return fmt.Errorf("incr: node %q was pruned", et.nodes[id].name)
	}
	return nil
}

func checkValue(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("incr: %s must be finite, got %g", what, v)
	}
	return nil
}

// SetCapacitance sets the lumped capacitance at node j to c (farads, or the
// tree's units). O(depth).
func (et *EditTree) SetCapacitance(j NodeID, c float64) error {
	if err := et.checkNode(j); err != nil {
		return err
	}
	if err := checkValue("capacitance", c); err != nil {
		return err
	}
	if c < 0 {
		return fmt.Errorf("incr: capacitance must be >= 0, got %g", c)
	}
	delta := c - et.nodes[j].nodeC
	if delta == 0 {
		return nil
	}
	et.nodes[j].nodeC = c
	path := et.pathFromRoot(j)
	var rkkJ float64
	for _, a := range path {
		rkkJ += et.nodes[a].edgeR
	}
	var p float64 // prefix resistance above the current path node
	for _, a := range path {
		et.s0[a] += delta
		et.s1[a] += delta * (rkkJ - p)
		p += et.nodes[a].edgeR
	}
	et.afterEdit(math.Abs(delta) * (1 + rkkJ))
	return nil
}

// AddCapacitance adds dc to the lumped capacitance at node j (dc may be
// negative as long as the result stays nonnegative). O(depth).
func (et *EditTree) AddCapacitance(j NodeID, dc float64) error {
	if err := et.checkNode(j); err != nil {
		return err
	}
	return et.SetCapacitance(j, et.nodes[j].nodeC+dc)
}

// SetResistance sets the resistance of the element into node j (resistor or
// line) to r > 0. O(depth).
func (et *EditTree) SetResistance(j NodeID, r float64) error {
	if err := et.checkNode(j); err != nil {
		return err
	}
	if j == Root {
		return fmt.Errorf("incr: the input node has no parent element")
	}
	if err := checkValue("resistance", r); err != nil {
		return err
	}
	if r <= 0 {
		return fmt.Errorf("incr: resistance must be > 0, got %g", r)
	}
	n := &et.nodes[j]
	delta := r - n.edgeR
	if delta == 0 {
		return nil
	}
	// Every capacitor at or below j sees the full ΔR on its root path; the
	// edge's own distributed capacitance sees half of it.
	eff := et.s0[j] - n.edgeC/2
	n.edgeR = r
	for _, a := range et.pathFromRoot(j) {
		et.s1[a] += delta * eff
	}
	et.afterEdit(math.Abs(delta * eff))
	return nil
}

// SetLine sets both values of the element into node j at once — the natural
// probe for wire-length sweeps, where R and C scale together. r must be
// positive; c nonnegative (c == 0 degrades the element to a lumped
// resistor, c > 0 promotes a resistor to a line). O(depth).
func (et *EditTree) SetLine(j NodeID, r, c float64) error {
	if err := et.checkNode(j); err != nil {
		return err
	}
	if j == Root {
		return fmt.Errorf("incr: the input node has no parent element")
	}
	if err := checkValue("resistance", r); err != nil {
		return err
	}
	if err := checkValue("capacitance", c); err != nil {
		return err
	}
	if r <= 0 || c < 0 {
		return fmt.Errorf("incr: line needs R > 0 and C >= 0, got R=%g C=%g", r, c)
	}
	n := &et.nodes[j]
	deltaR := r - n.edgeR
	deltaC := c - n.edgeC
	if deltaR == 0 && deltaC == 0 {
		return nil
	}
	// Resistance step against the old line capacitance, then the capacitance
	// step against the new resistance; applied along one path walk.
	effR := et.s0[j] - n.edgeC/2
	n.edgeR = r
	n.edgeC = c
	if c > 0 {
		n.kind = rctree.EdgeLine
	} else {
		n.kind = rctree.EdgeResistor
	}
	path := et.pathFromRoot(j)
	var rkkJ float64
	for _, a := range path {
		rkkJ += et.nodes[a].edgeR
	}
	pj := rkkJ - r // prefix resistance above the edited edge
	var p float64
	for _, a := range path {
		et.s0[a] += deltaC
		et.s1[a] += deltaR*effR + deltaC*(pj+r/2-p)
		p += et.nodes[a].edgeR
	}
	et.afterEdit(math.Abs(deltaR*effR) + math.Abs(deltaC)*(1+pj+r))
	return nil
}

// ScaleDriver multiplies the resistance of every element leaving the input
// by factor > 0 — the paper's driver-sizing knob, since the driver's
// effective resistance is common to every root path. O(#driver edges).
func (et *EditTree) ScaleDriver(factor float64) error {
	if err := checkValue("factor", factor); err != nil {
		return err
	}
	if factor <= 0 {
		return fmt.Errorf("incr: driver scale factor must be > 0, got %g", factor)
	}
	if factor == 1 {
		return nil
	}
	var mag float64
	for _, v := range et.nodes[Root].children {
		n := &et.nodes[v]
		if n.dead {
			continue
		}
		delta := n.edgeR * (factor - 1)
		eff := et.s0[v] - n.edgeC/2
		n.edgeR *= factor
		// Path root→v is just these two nodes.
		et.s1[Root] += delta * eff
		et.s1[v] += delta * eff
		mag += math.Abs(delta * eff)
	}
	et.afterEdit(mag)
	return nil
}

// Grow adds a leaf under parent: a lumped resistor (kind EdgeResistor,
// c == 0) or a distributed line (kind EdgeLine, c > 0), with r > 0 in both
// cases. An empty name is assigned automatically. O(depth).
func (et *EditTree) Grow(parent NodeID, name string, kind rctree.EdgeKind, r, c float64) (NodeID, error) {
	if err := et.checkNode(parent); err != nil {
		return 0, err
	}
	if err := checkValue("resistance", r); err != nil {
		return 0, err
	}
	if err := checkValue("capacitance", c); err != nil {
		return 0, err
	}
	switch kind {
	case rctree.EdgeResistor:
		if r <= 0 || c != 0 {
			return 0, fmt.Errorf("incr: resistor needs R > 0 and C == 0, got R=%g C=%g", r, c)
		}
	case rctree.EdgeLine:
		if r <= 0 || c <= 0 {
			return 0, fmt.Errorf("incr: line needs R > 0 and C > 0, got R=%g C=%g", r, c)
		}
	default:
		return 0, fmt.Errorf("incr: cannot grow a %v edge", kind)
	}
	if name == "" {
		name = fmt.Sprintf("n%d", len(et.nodes))
	}
	if _, dup := et.Lookup(name); dup {
		return 0, fmt.Errorf("incr: duplicate node name %q", name)
	}
	et.ownNames()
	id := NodeID(len(et.nodes))
	et.nodes = append(et.nodes, enode{name: name, parent: parent, kind: kind, edgeR: r, edgeC: c})
	et.nodes[parent].children = append(et.nodes[parent].children, id)
	et.byName[name] = id
	et.s0 = append(et.s0, c)
	et.s1 = append(et.s1, r*c/2)
	et.alive++
	var mag float64
	if c != 0 {
		path := et.pathFromRoot(parent)
		var rkkP float64
		for _, a := range path {
			rkkP += et.nodes[a].edgeR
		}
		var p float64
		for _, a := range path {
			et.s0[a] += c
			et.s1[a] += c * (rkkP + r/2 - p)
			p += et.nodes[a].edgeR
		}
		mag = c * (1 + rkkP + r)
	}
	et.afterEdit(mag)
	return id, nil
}

// Graft attaches a whole tree under parent: sub's input becomes a new node
// connected by the given element (validated as in Grow), and sub's remaining
// nodes follow with their names, elements and capacitors intact. name
// defaults to sub's input name. Every sub node name must be free in the
// overlay. sub's designated outputs are NOT adopted — call AddOutput with
// the returned IDs to tap the grafted copy. Returns ids, where ids[k] is the
// overlay NodeID of sub's node k. O(len(sub) + depth).
func (et *EditTree) Graft(parent NodeID, name string, kind rctree.EdgeKind, r, c float64, sub *rctree.Tree) ([]NodeID, error) {
	if err := et.checkNode(parent); err != nil {
		return nil, err
	}
	if sub == nil {
		return nil, fmt.Errorf("incr: nil subtree")
	}
	if err := checkValue("resistance", r); err != nil {
		return nil, err
	}
	if err := checkValue("capacitance", c); err != nil {
		return nil, err
	}
	switch kind {
	case rctree.EdgeResistor:
		if r <= 0 || c != 0 {
			return nil, fmt.Errorf("incr: resistor needs R > 0 and C == 0, got R=%g C=%g", r, c)
		}
	case rctree.EdgeLine:
		if r <= 0 || c <= 0 {
			return nil, fmt.Errorf("incr: line needs R > 0 and C > 0, got R=%g C=%g", r, c)
		}
	default:
		return nil, fmt.Errorf("incr: cannot graft over a %v edge", kind)
	}
	if name == "" {
		name = sub.Name(rctree.Root)
	}
	// Validate all names before mutating anything.
	m := sub.NumNodes()
	names := make([]string, m)
	names[0] = name
	for k := 1; k < m; k++ {
		names[k] = sub.Name(NodeID(k))
	}
	for k, nm := range names {
		if nm == "" {
			names[k] = fmt.Sprintf("n%d", len(et.nodes)+k)
			nm = names[k]
		}
		if _, dup := et.Lookup(nm); dup {
			return nil, fmt.Errorf("incr: graft name %q collides with an existing node", nm)
		}
	}
	seen := make(map[string]bool, m)
	for _, nm := range names {
		if seen[nm] {
			return nil, fmt.Errorf("incr: graft contains duplicate name %q", nm)
		}
		seen[nm] = true
	}
	for k := 1; k < m; k++ {
		if ekind, er, _ := sub.Edge(NodeID(k)); ekind == rctree.EdgeResistor && er <= 0 {
			return nil, fmt.Errorf("incr: graft resistor to %q must be positive", names[k])
		}
	}

	et.ownNames()
	base := len(et.nodes)
	ids := make([]NodeID, m)
	ids[0] = NodeID(base)
	et.nodes = append(et.nodes, enode{
		name: names[0], parent: parent, kind: kind, edgeR: r, edgeC: c,
		nodeC: sub.NodeCap(rctree.Root),
	})
	et.nodes[parent].children = append(et.nodes[parent].children, ids[0])
	et.byName[names[0]] = ids[0]
	for k := 1; k < m; k++ {
		ekind, er, ec := sub.Edge(NodeID(k))
		id := NodeID(len(et.nodes))
		ids[k] = id
		p := ids[sub.Parent(NodeID(k))]
		et.nodes = append(et.nodes, enode{
			name: names[k], parent: p, kind: ekind, edgeR: er, edgeC: ec,
			nodeC: sub.NodeCap(NodeID(k)),
		})
		et.nodes[p].children = append(et.nodes[p].children, id)
		et.byName[names[k]] = id
	}
	et.alive += m
	et.s0 = append(et.s0, make([]float64, m)...)
	et.s1 = append(et.s1, make([]float64, m)...)
	// Aggregates of the grafted range, bottom-up (IDs ascend topologically).
	for i := len(et.nodes) - 1; i >= base; i-- {
		n := &et.nodes[i]
		et.s0[i] += n.nodeC + n.edgeC
		et.s1[i] += n.edgeR * (et.s0[i] - n.edgeC/2)
		if i > base {
			et.s0[n.parent] += et.s0[i]
			et.s1[n.parent] += et.s1[i]
		}
	}
	// One propagation to the pre-existing ancestors.
	var mag float64
	if et.s0[base] != 0 {
		path := et.pathFromRoot(parent)
		var rkkP float64
		for _, a := range path {
			rkkP += et.nodes[a].edgeR
		}
		var p float64
		for _, a := range path {
			et.s0[a] += et.s0[base]
			et.s1[a] += et.s1[base] + et.s0[base]*(rkkP-p)
			p += et.nodes[a].edgeR
		}
		mag = et.s1[base] + et.s0[base]*(1+rkkP)
	}
	et.afterEdit(mag)
	return ids, nil
}

// Prune detaches the subtree rooted at q (q itself included). The NodeIDs of
// pruned nodes become invalid, their names free, and any designated outputs
// among them are dropped. O(len(subtree) + depth).
func (et *EditTree) Prune(q NodeID) error {
	if err := et.checkNode(q); err != nil {
		return err
	}
	if q == Root {
		return fmt.Errorf("incr: cannot prune the input node")
	}
	et.ownNames()
	// Subtract the subtree's aggregates from the surviving ancestors.
	s0q, s1q := et.s0[q], et.s1[q]
	parent := et.nodes[q].parent
	path := et.pathFromRoot(parent)
	var pq float64 // prefix resistance above q == rkk(parent)
	for _, a := range path {
		pq += et.nodes[a].edgeR
	}
	var p float64
	for _, a := range path {
		et.s0[a] -= s0q
		et.s1[a] -= s1q + s0q*(pq-p)
		p += et.nodes[a].edgeR
	}
	// Unlink from the parent and mark the subtree dead.
	kids := et.nodes[parent].children
	for i, v := range kids {
		if v == q {
			et.nodes[parent].children = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	deadSet := make(map[NodeID]bool)
	stack := []NodeID{q}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &et.nodes[v]
		n.dead = true
		deadSet[v] = true
		delete(et.byName, n.name)
		et.s0[v], et.s1[v] = 0, 0
		et.alive--
		stack = append(stack, n.children...)
	}
	kept := et.outputs[:0]
	for _, o := range et.outputs {
		if !deadSet[o] {
			kept = append(kept, o)
		}
	}
	et.outputs = kept
	et.afterEdit(s1q + s0q*(1+pq))
	return nil
}

// AddOutput designates node id as an output.
func (et *EditTree) AddOutput(id NodeID) error {
	if err := et.checkNode(id); err != nil {
		return err
	}
	for _, o := range et.outputs {
		if o == id {
			return fmt.Errorf("incr: node %q is already an output", et.nodes[id].name)
		}
	}
	et.outputs = append(et.outputs, id)
	et.gen++
	return nil
}

// RemoveOutput undesignates node id; it reports whether id was an output.
func (et *EditTree) RemoveOutput(id NodeID) bool {
	for i, o := range et.outputs {
		if o == id {
			et.outputs = append(et.outputs[:i], et.outputs[i+1:]...)
			et.gen++
			return true
		}
	}
	return false
}

// Times computes the characteristic times of output e from the maintained
// aggregates in O(depth(e)); repeated queries between edits are served from
// a memo. The result matches rctree.CharacteristicTimes on the materialized
// tree to floating-point accuracy.
func (et *EditTree) Times(e NodeID) (rctree.Times, error) {
	if err := et.checkNode(e); err != nil {
		return rctree.Times{}, err
	}
	if ct, ok := et.cache[e]; ok && ct.gen == et.gen {
		return ct.tm, nil
	}
	if et.cache == nil {
		et.cache = make(map[NodeID]cachedTimes)
	}
	var td, trNum, p float64
	path := et.pathFromRoot(e)
	for _, a := range path[1:] {
		n := &et.nodes[a]
		r, c := n.edgeR, n.edgeC
		csub := et.s0[a]
		td += r * (csub - c/2)
		trNum += (csub-c)*r*(2*p+r) + c*(p*r+r*r/3)
		p += r
	}
	tm := rctree.Times{TP: et.s1[Root], TD: td, Ree: p}
	if p > 0 {
		tm.TR = trNum / p
	}
	// Squash the tiny negative dust incremental subtraction can leave when a
	// sum cancels to zero; anything larger is a real error Validate reports.
	scale := math.Max(math.Abs(tm.TP), 1)
	for _, f := range []*float64{&tm.TP, &tm.TD, &tm.TR} {
		if *f < 0 && *f > -1e-12*scale {
			*f = 0
		}
	}
	if err := tm.Validate(); err != nil {
		return rctree.Times{}, err
	}
	et.cache[e] = cachedTimes{gen: et.gen, tm: tm}
	return tm, nil
}

// AllTimes computes Times for every designated output, keyed by node ID.
// O(outputs · depth), against the full analysis's O(outputs · n).
func (et *EditTree) AllTimes() (map[NodeID]rctree.Times, error) {
	out := make(map[NodeID]rctree.Times, len(et.outputs))
	for _, e := range et.outputs {
		tm, err := et.Times(e)
		if err != nil {
			return nil, fmt.Errorf("incr: output %q: %w", et.nodes[e].name, err)
		}
		out[e] = tm
	}
	return out, nil
}

// Recompute forces the full O(n) aggregate pass, discarding any accumulated
// floating-point drift. Queries after Recompute are exact to one full
// analysis of the current state. The element values are unchanged, so Gen
// is too; the query memo, computed from the drifted aggregates, is dropped.
func (et *EditTree) Recompute() {
	et.recomputeAggregates()
	clear(et.cache)
}

// Materialize compacts the current state into an immutable rctree.Tree.
// mapping[old] is the new NodeID of live node old, or -1 for pruned slots.
// The new tree carries the overlay's designated outputs; if none are
// designated, rctree's Build promotes every leaf, as usual.
func (et *EditTree) Materialize() (*rctree.Tree, []NodeID, error) {
	mapping := make([]NodeID, len(et.nodes))
	for i := range mapping {
		mapping[i] = -1
	}
	b := rctree.NewBuilderSize(et.nodes[Root].name, et.alive, len(et.outputs))
	mapping[Root] = rctree.Root
	if c := et.nodes[Root].nodeC; c > 0 {
		b.Capacitor(rctree.Root, c)
	}
	for i := 1; i < len(et.nodes); i++ {
		n := &et.nodes[i]
		if n.dead {
			continue
		}
		np := mapping[n.parent]
		var id NodeID
		switch n.kind {
		case rctree.EdgeResistor:
			id = b.Resistor(np, n.name, n.edgeR)
		case rctree.EdgeLine:
			id = b.Line(np, n.name, n.edgeR, n.edgeC)
		default:
			return nil, nil, fmt.Errorf("incr: node %q has no parent element", n.name)
		}
		mapping[i] = id
		if n.nodeC > 0 {
			b.Capacitor(id, n.nodeC)
		}
	}
	for _, o := range et.outputs {
		b.Output(mapping[o])
	}
	t, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return t, mapping, nil
}

// Gen returns the mutation generation; it increments on every successful
// edit, so equal generations imply identical timing state.
func (et *EditTree) Gen() uint64 { return et.gen }

// NumNodes reports the number of live nodes, including the input.
func (et *EditTree) NumNodes() int { return et.alive }

// Slots reports the total number of NodeID slots ever allocated, dead ones
// included — the exclusive upper bound for scanning IDs with Name/checkNode,
// since pruned slots persist and grown nodes always take fresh ascending IDs.
func (et *EditTree) Slots() int { return len(et.nodes) }

// Children returns a copy of the live children of node id (empty for pruned
// or out-of-range IDs) — with Parent, the full topology surface a read-only
// consumer like the closure engine's stub scan needs.
func (et *EditTree) Children(id NodeID) []NodeID {
	if et.checkNode(id) != nil {
		return nil
	}
	return append([]NodeID(nil), et.nodes[id].children...)
}

// Outputs returns a copy of the designated output IDs, in designation order.
func (et *EditTree) Outputs() []NodeID { return append([]NodeID(nil), et.outputs...) }

// Lookup finds a live node by name.
func (et *EditTree) Lookup(name string) (NodeID, bool) {
	if et.byName == nil {
		return et.src.Lookup(name)
	}
	id, ok := et.byName[name]
	return id, ok
}

// Name returns the name of live node id ("" for pruned or out-of-range IDs).
func (et *EditTree) Name(id NodeID) string {
	if et.checkNode(id) != nil {
		return ""
	}
	return et.nodes[id].name
}

// Parent returns the parent of id, or -1 for the input.
func (et *EditTree) Parent(id NodeID) NodeID { return et.nodes[id].parent }

// Edge describes the element connecting id to its parent.
func (et *EditTree) Edge(id NodeID) (kind rctree.EdgeKind, r, c float64) {
	n := &et.nodes[id]
	return n.kind, n.edgeR, n.edgeC
}

// NodeCap returns the lumped capacitance at node id.
func (et *EditTree) NodeCap(id NodeID) float64 { return et.nodes[id].nodeC }

// TotalCap returns the total live capacitance, lumped and distributed.
func (et *EditTree) TotalCap() float64 { return et.s0[Root] }

// SubtreeCap returns the total capacitance (lumped and distributed) of the
// subtree rooted at id, read off the maintained aggregates in O(1) — the
// natural pre-check before a Prune ("how much load would this remove?").
// Pruned nodes report 0.
func (et *EditTree) SubtreeCap(id NodeID) float64 {
	if et.checkNode(id) != nil {
		return 0
	}
	return et.s0[id]
}
