package core

import (
	"fmt"

	"github.com/mitos-project/mitos/internal/ir"
	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// beginKind prepares kind-specific state for a new output bag. For joins it
// implements loop-invariant hoisting: when enabled and the selected build
// input bag is the same as for the previous output, the cached hash table
// is reused instead of being rebuilt (paper Sec. 5.3).
func (h *host) beginKind(run *outputRun) error {
	switch h.op.Synth {
	case SynthCombineByKey:
		run.foldTable()
		return nil
	case SynthLocalDistinct:
		run.distinct = val.NewMap[struct{}](16)
		return nil
	case SynthPartialSum, SynthPartialCount, SynthPartialReduce:
		return nil
	}
	switch h.op.Instr.Kind {
	case ir.OpJoin:
		if h.rt.opts.Hoisting && h.cachedBuild != nil && h.cachedBuildPos == run.inPos[0] {
			run.build = h.cachedBuild
			run.slotDone[0] = true
			run.phase = 1
			h.joinReuses.Inc()
			if h.trc != nil {
				h.trc.Instant("hoist", "build_reuse", h.machine, h.lane,
					map[string]any{"pos": run.pos, "build_pos": run.inPos[0]})
			}
		} else {
			run.build = val.NewMap[[]val.Value](16)
		}
	case ir.OpReduceByKey:
		run.foldTable()
	case ir.OpDeltaMerge:
		h.beginDeltaMerge(run)
	case ir.OpDistinct:
		run.distinct = val.NewMap[struct{}](16)
	case ir.OpCombine, ir.OpReadFile, ir.OpWriteFile:
		run.args = sizedVals(run.args, len(h.op.Inputs))
	}
	return nil
}

// pump advances the current output bag as far as the buffered input allows
// and reports whether the bag is finished. It is called after every event
// and must be resumable: progress is tracked in the run's cursors, phase,
// and slotDone flags.
func (h *host) pump() (bool, error) {
	run := h.cur
	if h.op.Synth != SynthNone {
		return h.pumpPartial(run)
	}
	k := h.op.Instr.Kind
	switch k {
	case ir.OpSingleton:
		h.emit(run, h.op.Instr.Lit)
		return true, nil
	case ir.OpEmpty:
		return true, nil
	case ir.OpCopy, ir.OpPhi, ir.OpMap, ir.OpFlatMap, ir.OpFilter, ir.OpUnion:
		return h.pumpStreaming(run)
	case ir.OpJoin:
		return h.pumpJoin(run)
	case ir.OpCross:
		return h.pumpCross(run)
	case ir.OpReduceByKey:
		return h.pumpReduceByKey(run)
	case ir.OpDeltaMerge:
		return h.pumpDeltaMerge(run)
	case ir.OpSolution:
		return h.pumpSolution(run)
	case ir.OpReduce, ir.OpSum, ir.OpCount, ir.OpDistinct:
		return h.pumpAggregate(run)
	case ir.OpCombine:
		return h.pumpCombine(run)
	case ir.OpReadFile:
		return h.pumpReadFile(run)
	case ir.OpWriteFile:
		return h.pumpWriteFile(run)
	default:
		return false, fmt.Errorf("core: no runtime logic for %s", k)
	}
}

// drainSlot returns the not-yet-consumed elements of the selected bag on
// slot i and advances the cursor past them.
func (h *host) drainSlot(run *outputRun, i int) []val.Value {
	b := h.bagFor(run, i)
	elems := b.elems[run.cursor[i]:]
	run.cursor[i] = len(b.elems)
	return elems
}

// slotExhausted reports whether slot i's bag is complete and fully consumed.
func (h *host) slotExhausted(run *outputRun, i int) bool {
	b := h.bagFor(run, i)
	return b.complete && run.cursor[i] == len(b.elems)
}

func allDone(run *outputRun) bool {
	for _, d := range run.slotDone {
		if !d {
			return false
		}
	}
	return true
}

// pumpStreaming handles element-wise operators: every available element of
// every active slot is transformed and emitted immediately — this is what
// makes the dataflow pipelined end to end.
func (h *host) pumpStreaming(run *outputRun) (bool, error) {
	for i := range h.op.Inputs {
		if run.slotDone[i] {
			continue
		}
		for _, x := range h.drainSlot(run, i) {
			if err := h.emitTransformed(run, x); err != nil {
				return false, err
			}
		}
		if h.slotExhausted(run, i) {
			run.slotDone[i] = true
		}
	}
	return allDone(run), nil
}

func (h *host) emitTransformed(run *outputRun, x val.Value) error {
	switch h.op.Instr.Kind {
	case ir.OpCopy, ir.OpPhi, ir.OpUnion:
		h.emit(run, x)
	case ir.OpMap:
		y, err := h.call1(x)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		h.emit(run, y)
	case ir.OpFlatMap:
		y, err := h.call1(x)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		if y.Kind() != val.KindTuple {
			return fmt.Errorf("core: %s: flatMap function returned %s, want tuple", h.op.Instr.Var, y.Kind())
		}
		for _, f := range y.Fields() {
			h.emit(run, f)
		}
	case ir.OpFilter:
		keep, err := h.call1(x)
		if err != nil {
			return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		if keep.Kind() != val.KindBool {
			return fmt.Errorf("core: %s: filter predicate returned %s, want bool", h.op.Instr.Var, keep.Kind())
		}
		if keep.AsBool() {
			h.emit(run, x)
		}
	}
	return nil
}

// pumpJoin builds the hash table from slot 0, then streams probes from
// slot 1. With hoisting the build phase may have been skipped entirely.
func (h *host) pumpJoin(run *outputRun) (bool, error) {
	if run.phase == 0 {
		for _, x := range h.drainSlot(run, 0) {
			k, v, err := pairParts(x, h.op.Instr.Var)
			if err != nil {
				return false, err
			}
			p, _ := run.build.Ref(k)
			*p = append(*p, v)
		}
		if !h.slotExhausted(run, 0) {
			return false, nil
		}
		run.slotDone[0] = true
		run.phase = 1
		h.rt.joinBuilds.Add(1)
		h.joinBuilds.Inc()
		if h.rt.opts.Hoisting {
			h.cachedBuild = run.build
			h.cachedBuildPos = run.inPos[0]
		}
	}
	for _, x := range h.drainSlot(run, 1) {
		k, v, err := pairParts(x, h.op.Instr.Var)
		if err != nil {
			return false, err
		}
		if matches, ok := run.build.Get(k); ok {
			for _, lv := range matches {
				h.emit(run, val.Tuple(k, lv, v))
			}
		}
	}
	if h.slotExhausted(run, 1) {
		run.slotDone[1] = true
	}
	return allDone(run), nil
}

// pumpCross waits for the broadcast right side, then streams the left side
// against it. The right side's raw bag is reused directly, so reuse across
// iteration steps needs no rebuilding.
func (h *host) pumpCross(run *outputRun) (bool, error) {
	if run.phase == 0 {
		right := h.bagFor(run, 1)
		if !right.complete {
			return false, nil
		}
		run.cursor[1] = len(right.elems)
		run.slotDone[1] = true
		run.phase = 1
	}
	right := h.bagFor(run, 1).elems
	for _, l := range h.drainSlot(run, 0) {
		for _, r := range right {
			h.emit(run, val.Tuple(l, r))
		}
	}
	if h.slotExhausted(run, 0) {
		run.slotDone[0] = true
	}
	return allDone(run), nil
}

func (h *host) pumpReduceByKey(run *outputRun) (bool, error) {
	for _, x := range h.drainSlot(run, 0) {
		if err := h.foldInto(run.hash, x); err != nil {
			return false, err
		}
	}
	if !h.slotExhausted(run, 0) {
		return false, nil
	}
	run.hash.Range(func(k, v val.Value) bool {
		h.emit(run, val.Pair(k, v))
		return true
	})
	run.slotDone[0] = true
	return true, nil
}

// foldInto folds one streaming (key, value) pair into a per-run table with
// the operator's UDF: reduceByKey groups, its partial combiner, and the
// deltaMerge seed and candidate folds all share this shape.
func (h *host) foldInto(m *val.Map[val.Value], x val.Value) error {
	k, v, err := pairParts(x, h.op.Instr.Var)
	if err != nil {
		return err
	}
	p, present := m.Ref(k)
	if !present {
		*p = v
		return nil
	}
	y, err := h.call2(*p, v)
	if err != nil {
		return fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	*p = y
	return nil
}

// pumpAggregate handles reduce, sum, count, and distinct. Distinct emits
// streaming (first occurrence wins); the others emit on completion.
func (h *host) pumpAggregate(run *outputRun) (bool, error) {
	for _, x := range h.drainSlot(run, 0) {
		switch h.op.Instr.Kind {
		case ir.OpReduce:
			if !run.accSet {
				run.acc, run.accSet = x, true
			} else {
				y, err := h.call2(run.acc, x)
				if err != nil {
					return false, fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
				}
				run.acc = y
			}
		case ir.OpSum:
			switch x.Kind() {
			case val.KindInt:
				run.sumInt += x.AsInt()
			case val.KindFloat:
				run.sumIsF = true
				run.sumFloat += x.AsFloat()
			default:
				return false, fmt.Errorf("core: %s: sum of %s element", h.op.Instr.Var, x.Kind())
			}
		case ir.OpCount:
			if h.op.Inputs[0].Combined {
				// The input holds per-instance partial counts, not raw
				// elements: merge by summing.
				run.count += x.AsInt()
			} else {
				run.count++
			}
		case ir.OpDistinct:
			if _, seen := run.distinct.Get(x); !seen {
				run.distinct.Put(x, struct{}{})
				h.emit(run, x)
			}
		}
	}
	if !h.slotExhausted(run, 0) {
		return false, nil
	}
	switch h.op.Instr.Kind {
	case ir.OpReduce:
		if run.accSet {
			h.emit(run, run.acc)
		}
	case ir.OpSum:
		if run.sumIsF {
			h.emit(run, val.Float(run.sumFloat+float64(run.sumInt)))
		} else {
			h.emit(run, val.Int(run.sumInt))
		}
	case ir.OpCount:
		h.emit(run, val.Int(run.count))
	}
	run.slotDone[0] = true
	return true, nil
}

// captureSingleton consumes slot i of a singleton input into run.args[i].
func (h *host) captureSingleton(run *outputRun, i int) (bool, error) {
	for _, x := range h.drainSlot(run, i) {
		if run.argSet(i) {
			return false, fmt.Errorf("core: %s: input %d holds more than one element (scalar variable bound to a non-singleton bag)", h.op.Instr.Var, i)
		}
		run.args[i] = x
	}
	if !h.slotExhausted(run, i) {
		return false, nil
	}
	if !run.argSet(i) {
		return false, fmt.Errorf("core: %s: input %d is empty, want exactly one element", h.op.Instr.Var, i)
	}
	run.slotDone[i] = true
	return true, nil
}

func (run *outputRun) argSet(i int) bool { return run.args[i].IsValid() }

func (h *host) pumpCombine(run *outputRun) (bool, error) {
	for i := range h.op.Inputs {
		if run.slotDone[i] {
			continue
		}
		if _, err := h.captureSingleton(run, i); err != nil {
			return false, err
		}
	}
	if !allDone(run) {
		return false, nil
	}
	y, err := h.op.Instr.F.Call(run.args...)
	if err != nil {
		return false, fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	h.emit(run, y)
	return true, nil
}

func (h *host) pumpReadFile(run *outputRun) (bool, error) {
	if run.slotDone[0] {
		return true, nil
	}
	ok, err := h.captureSingleton(run, 0)
	if err != nil || !ok {
		return false, err
	}
	name := run.args[0]
	if name.Kind() != val.KindString {
		return false, fmt.Errorf("core: %s: file name is %s, want string", h.op.Instr.Var, name.Kind())
	}
	// Prefer a true partitioned read (internal/dfs); fall back to striding
	// over the full dataset.
	if pr, ok := h.rt.store.(store.PartitionedReader); ok {
		elems, err := pr.ReadDatasetPartition(name.AsStr(), h.inst, h.op.Par)
		if err != nil {
			return false, fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
		}
		for _, e := range elems {
			h.emit(run, e)
		}
		return true, nil
	}
	elems, err := h.rt.store.ReadDataset(name.AsStr())
	if err != nil {
		return false, fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	// This instance reads its stride partition of the dataset.
	for i := h.inst; i < len(elems); i += h.op.Par {
		h.emit(run, elems[i])
	}
	return true, nil
}

func (h *host) pumpWriteFile(run *outputRun) (bool, error) {
	// Slot 0: data (left buffered in its bag). Slot 1: file name.
	if !run.slotDone[1] {
		if _, err := h.captureSingleton(run, 1); err != nil {
			return false, err
		}
	}
	data := h.bagFor(run, 0)
	run.cursor[0] = len(data.elems)
	if !data.complete || !run.slotDone[1] {
		return false, nil
	}
	run.slotDone[0] = true
	name := run.args[1]
	if name.Kind() != val.KindString {
		return false, fmt.Errorf("core: %s: file name is %s, want string", h.op.Instr.Var, name.Kind())
	}
	out := make([]val.Value, len(data.elems))
	copy(out, data.elems)
	if err := h.rt.store.WriteDataset(name.AsStr(), out); err != nil {
		return false, fmt.Errorf("core: %s: %w", h.op.Instr.Var, err)
	}
	return true, nil
}

func pairParts(x val.Value, op string) (k, v val.Value, err error) {
	k, v, ok := x.AsPair()
	if !ok {
		return val.Value{}, val.Value{}, fmt.Errorf("core: %s requires (key, value) pairs, got %s", op, x)
	}
	return k, v, nil
}
