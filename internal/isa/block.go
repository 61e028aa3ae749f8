package isa

// Block-dispatch execution engine. The decode-switch interpreter in
// cpu.go fetches and decodes every instruction on every execution; this
// file decodes each straight-line run of kernel text once into a
// predecoded basic block — operands resolved, branch targets computed,
// one function pointer per instruction — and thereafter executes from
// the cached block with no fetch, no decode, and a lazily committed
// RIP.
//
// Three superinstructions cover the patterns that dominate KShot
// workloads:
//
//   - ftrace prologue: `call __fentry__` where the callee is a bare
//     ret. The call/ret pair executes as one fused pred (the block does
//     not even end at the call).
//   - flag-set + conditional jump: cmp/cmpi/add/sub/addi/subi
//     immediately followed by a jcc runs as one fused terminator.
//   - jmp chains: a jmp whose target is another jmp (the shape a patch
//     trampoline produces) is folded up to maxChainHops deep, so a
//     patched function costs one dispatch, not one per hop.
//
// Correctness contract: a block must be observationally identical to
// running CPU.Step over the same addresses — the same retired-step
// counts, the same flag/register/RIP results, and the same errors with
// the same RIP attribution. Anything the decoder cannot predecode
// exactly (an invalid opcode, an unfetchable address) simply ends the
// block; the dispatcher falls back to Step, which reproduces the
// oracle's behavior by construction.
//
// Invalidation is epoch-keyed: the cache is valid for exactly one value
// of mem.Physical.CodeEpoch(), which bumps after any write into
// executable memory, any mapping or permission change, and any snapshot
// restore. RunUnit compares epochs before dispatch and flushes on
// mismatch — "epoch mismatch ⇒ re-decode" is the whole protocol, no new
// synchronization. A store executed from inside a block re-checks the
// epoch after writing, so even self-modifying code never runs a stale
// successor instruction within the same block.

const (
	// blockCap bounds the instructions decoded into one block, so a
	// huge straight-line function still interleaves with the step
	// budget and SMI pause points at a reasonable granularity.
	blockCap = 64

	// maxChainHops bounds jmp-chain folding (1 + folded hops). Patch
	// trampolines are one hop; stacked patches a few. The cap also
	// bounds decode-time work and makes jmp cycles harmless.
	maxChainHops = 4
)

// pred is one predecoded execution step: usually a single instruction,
// or a fused superinstruction covering two (flag-set+jcc, call+ret) or
// several (a folded jmp chain).
type pred struct {
	fn       predFn
	op, op2  Op // op2: the fused jcc for flag-set+jcc preds
	dst, src uint8
	imm      int64
	addr     uint64 // address of the (first) instruction
	next     uint64 // fall-through address past the (fused) instruction(s)
	target   uint64 // branch target / fused callee / folded chain exit
	steps    int    // instructions this pred retires when it completes
}

// predFn executes one pred. It returns the instructions retired (the
// fn itself advances c.Steps by the same amount), whether the unit is
// over (control left the straight line, or the code epoch moved), and
// any execution error. On error the fn commits c.RIP to the faulting
// instruction, exactly where the oracle interpreter would have left it.
type predFn func(e *Engine, p *pred) (retired int, done bool, err error)

// Block is a predecoded basic block: the straight-line instruction run
// starting at Start, ending at the first control transfer (or at
// blockCap, or at the first byte the decoder could not predecode).
type Block struct {
	start, end uint64
	preds      []pred

	// succ caches the last two blocks dispatched right after this one
	// in the current code epoch, most recent first. RunUnit follows a
	// link only when its start equals RIP, so a link is an exact
	// shortcut for the blocks map lookup it replaces.
	succ [2]*Block
}

// Start returns the block's entry address.
func (b *Block) Start() uint64 { return b.start }

// End returns the first address past the block's in-line instructions.
func (b *Block) End() uint64 { return b.end }

// EngineStats counts block-cache behavior for tests and benchmarks.
// Read them only while the owning vCPU is quiescent.
type EngineStats struct {
	Decodes   uint64 // blocks decoded (cache misses)
	Hits      uint64 // block dispatches served from cache (by link or map)
	Flushes   uint64 // whole-cache invalidations (code epoch moved)
	Fallbacks uint64 // single Step fallbacks (undecodable head or budget)
}

// Engine executes a CPU through predecoded basic blocks, falling back
// to CPU.Step whenever predecoding cannot represent the next
// instruction exactly. An Engine is owned by one vCPU and is not safe
// for concurrent use; the shared state it reads (memory contents, the
// code epoch) is synchronized by mem.Physical itself.
type Engine struct {
	C *CPU

	blocks map[uint64]*Block
	epoch  uint64

	// prev is the block the last unit dispatched, whose links the next
	// unit tries before the map; nil after a flush or a Step fallback,
	// so no link outlives its code epoch.
	prev *Block

	stats EngineStats
	links uint64 // dispatches served by a block link (counted in Hits too)
}

// NewEngine creates a block-dispatch engine over the CPU.
func NewEngine(c *CPU) *Engine {
	return &Engine{C: c, blocks: make(map[uint64]*Block), epoch: c.M.CodeEpoch()}
}

// Stats returns the cache counters.
func (e *Engine) Stats() EngineStats { return e.stats }

func (e *Engine) flush(epoch uint64) {
	e.blocks = make(map[uint64]*Block)
	e.prev = nil
	e.epoch = epoch
	e.stats.Flushes++
}

// RunUnit executes one dispatch unit — one basic block, or one oracle
// Step when the address has no decodable block or the budget cannot
// cover a fused pred — and returns the instructions retired. budget
// must be >= 1; the unit never retires more than budget instructions.
// Callers must hold the CPU quiescent for the duration (the machine
// brackets each unit between SMI pause points).
func (e *Engine) RunUnit(budget int) (int, error) {
	c := e.C
	if ep := c.M.CodeEpoch(); ep != e.epoch {
		e.flush(ep)
	}
	rip := c.RIP
	b := e.linked(rip)
	if b == nil {
		if b = e.blocks[rip]; b == nil {
			if b = e.decodeBlock(rip); b == nil {
				e.stats.Fallbacks++
				e.prev = nil
				return e.stepOnce()
			}
			e.blocks[rip] = b
			e.stats.Decodes++
		} else {
			e.stats.Hits++
		}
		if p := e.prev; p != nil {
			p.succ[1], p.succ[0] = p.succ[0], b
		}
	} else {
		e.stats.Hits++
		e.links++
	}
	e.prev = b
	return e.exec(b, budget)
}

// linked returns the previous block's cached successor starting at
// rip, or nil.
func (e *Engine) linked(rip uint64) *Block {
	p := e.prev
	if p == nil {
		return nil
	}
	if s := p.succ[0]; s != nil && s.start == rip {
		return s
	}
	if s := p.succ[1]; s != nil && s.start == rip {
		return s
	}
	return nil
}

// stepOnce delegates one instruction to the oracle interpreter,
// deriving the retired count from the Steps delta (a fetch or decode
// failure retires nothing; everything else retires one).
func (e *Engine) stepOnce() (int, error) {
	c := e.C
	before := c.Steps
	err := c.Step()
	return int(c.Steps - before), err
}

// exec runs the block until a control transfer, an error, or the
// budget. RIP is committed lazily: at block exit, at a taken branch, or
// at the faulting instruction on error.
func (e *Engine) exec(b *Block, budget int) (int, error) {
	c := e.C
	used := 0
	for i := range b.preds {
		p := &b.preds[i]
		if p.steps > budget-used {
			if used == 0 {
				// The budget cannot cover even the first (fused)
				// pred; retire single instructions via the oracle so
				// budget semantics stay exact.
				e.stats.Fallbacks++
				return e.stepOnce()
			}
			c.RIP = p.addr
			return used, nil
		}
		n, done, err := p.fn(e, p)
		used += n
		if err != nil {
			return used, err
		}
		if done {
			return used, nil
		}
	}
	c.RIP = b.end
	return used, nil
}

// decodeBlock predecodes the straight-line run at addr. It returns nil
// when not even the first instruction predecodes (the caller falls back
// to Step, which reproduces the exact fetch/decode error).
func (e *Engine) decodeBlock(addr uint64) *Block {
	c := e.C
	var buf [LenMovi]byte
	b := &Block{start: addr}
	cur := addr
	for len(b.preds) < blockCap {
		if err := c.M.Fetch(c.Priv, cur, buf[:1]); err != nil {
			break
		}
		n := Op(buf[0]).Length()
		if n == 0 {
			break
		}
		if n > 1 {
			if err := c.M.Fetch(c.Priv, cur+1, buf[1:n]); err != nil {
				break
			}
		}
		inst, _, err := Decode(buf[:n])
		if err != nil {
			break
		}
		d := Decoded{Addr: cur, Inst: inst, Len: n}
		term, ok := e.appendPred(b, d)
		if !ok {
			break
		}
		cur += uint64(n)
		if term {
			b.end = cur
			return b
		}
	}
	if len(b.preds) == 0 {
		return nil
	}
	b.end = cur
	return b
}

// appendPred converts one decoded instruction into the block's next
// pred, applying superinstruction fusion. It reports whether the block
// is complete (term: the pred is a terminator) and whether the
// instruction could be predecoded at all (ok; a false ends the block
// before the instruction and the dispatcher's Step fallback handles
// it).
func (e *Engine) appendPred(b *Block, d Decoded) (term, ok bool) {
	in := d.Inst
	next := d.Addr + uint64(d.Len)
	p := pred{op: in.Op, dst: in.Dst, src: in.Src, imm: in.Imm, addr: d.Addr, next: next, steps: 1}

	switch in.Op {
	case OpNop:
		p.fn = execNop
	case OpHlt:
		p.fn = execHlt
		b.preds = append(b.preds, p)
		return true, true
	case OpTrap:
		p.fn = execTrap
		b.preds = append(b.preds, p)
		return true, true
	case OpRet:
		p.fn = execRet
		b.preds = append(b.preds, p)
		return true, true
	case OpCall:
		p.target, _ = d.BranchTarget()
		// ftrace-prologue fusion: a call whose callee is a bare ret
		// (the `call __fentry__` shape at every traced function entry)
		// runs as one fused pred and does not end the block.
		var cb [1]byte
		if e.C.M.Fetch(e.C.Priv, p.target, cb[:]) == nil && Op(cb[0]) == OpRet {
			p.fn = execFusedCallRet
			p.steps = 2
			b.preds = append(b.preds, p)
			return false, true
		}
		p.fn = execCall
		b.preds = append(b.preds, p)
		return true, true
	case OpJmp:
		// Trampoline fusion: fold a chain of jmps (patch trampolines
		// stack exactly this way) into one pred that retires one step
		// per folded hop.
		p.target, _ = d.BranchTarget()
		p.fn = execJmpChain
		for p.steps < maxChainHops {
			var jb [LenBranch]byte
			if e.C.M.Fetch(e.C.Priv, p.target, jb[:]) != nil {
				break
			}
			hop, _, err := Decode(jb[:])
			if err != nil || hop.Op != OpJmp {
				break
			}
			p.target = uint64(int64(p.target) + LenBranch + hop.Imm)
			p.steps++
		}
		b.preds = append(b.preds, p)
		return true, true
	case OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		p.target, _ = d.BranchTarget()
		// Flag-set + jcc fusion: merge into the preceding cmp-family
		// pred when there is one.
		if n := len(b.preds); n > 0 {
			if lp := &b.preds[n-1]; lp.steps == 1 && fusableFlagSetter(lp.op) {
				lp.fn = execFusedFlagsJcc
				lp.op2 = in.Op
				lp.target = p.target
				lp.next = next
				lp.steps = 2
				return true, true
			}
		}
		p.fn = execJcc
		b.preds = append(b.preds, p)
		return true, true
	case OpMovi:
		p.fn = execMovi
	case OpMov:
		p.fn = execMov
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp, OpCmpi, OpAddi, OpSubi:
		p.fn = execFlags
	case OpDiv:
		p.fn = execDiv
	case OpLoad:
		p.fn = execLoad
	case OpStore:
		p.fn = execStore
	case OpPush:
		p.fn = execPush
	case OpPop:
		p.fn = execPop
	case OpLoadg:
		p.fn = execLoadg
	case OpStrg:
		p.fn = execStrg
	default:
		// Length() accepted the opcode but no executor exists — end
		// the block before this instruction so the dispatcher's Step
		// fallback keeps the oracle's "unhandled opcode" path.
		return true, false
	}
	b.preds = append(b.preds, p)
	return false, true
}

// fusableFlagSetter reports whether op is a register-only flag-setting
// instruction (no fault paths), safe to fuse with a following jcc.
func fusableFlagSetter(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpAddi, OpSubi, OpCmp, OpCmpi:
		return true
	}
	return false
}

// flagResult computes the flag-setting ops' result and writeback,
// mirroring the oracle's switch arms exactly.
func flagResult(c *CPU, op Op, dst, src uint8, imm int64) int64 {
	switch op {
	case OpAdd:
		return c.alu(dst, c.Reg[dst]+c.Reg[src])
	case OpSub:
		return c.alu(dst, c.Reg[dst]-c.Reg[src])
	case OpMul:
		return c.alu(dst, c.Reg[dst]*c.Reg[src])
	case OpAnd:
		return c.alu(dst, c.Reg[dst]&c.Reg[src])
	case OpOr:
		return c.alu(dst, c.Reg[dst]|c.Reg[src])
	case OpXor:
		return c.alu(dst, c.Reg[dst]^c.Reg[src])
	case OpShl:
		return c.alu(dst, c.Reg[dst]<<(c.Reg[src]&63))
	case OpShr:
		return c.alu(dst, c.Reg[dst]>>(c.Reg[src]&63))
	case OpCmp:
		return int64(c.Reg[dst] - c.Reg[src])
	case OpCmpi:
		return int64(c.Reg[dst] - uint64(imm))
	case OpAddi:
		return c.alu(dst, c.Reg[dst]+uint64(imm))
	case OpSubi:
		return c.alu(dst, c.Reg[dst]-uint64(imm))
	}
	return 0
}

func execNop(e *Engine, p *pred) (int, bool, error) {
	e.C.Steps++
	return 1, false, nil
}

func execHlt(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	c.RIP = p.addr
	return 1, true, &ExecError{RIP: p.addr, Err: errHlt()}
}

func execTrap(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	c.RIP = p.next
	return 1, true, &TrapError{Code: int(p.imm), RIP: p.addr}
}

func execRet(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	v, err := c.pop()
	if err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.RIP = v
	return 1, true, nil
}

func execCall(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	if err := c.push(p.next); err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.RIP = p.target
	return 1, true, nil
}

// execFusedCallRet is the ftrace-prologue superinstruction: call to a
// bare ret, fused. When the popped return address is the fall-through
// (the overwhelmingly common case — nothing touched the stack slot),
// the block continues in-line; otherwise the unit ends at the popped
// address, exactly as the oracle's ret would.
func execFusedCallRet(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++ // the call
	if err := c.push(p.next); err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.Steps++ // the callee's ret
	v, err := c.pop()
	if err != nil {
		c.RIP = p.target
		return 2, true, &ExecError{RIP: p.target, Err: err}
	}
	c.RIP = v
	return 2, v != p.next, nil
}

// execJmpChain is the trampoline superinstruction: the in-block jmp
// plus up to maxChainHops-1 folded follow-on jmps, each retiring one
// step.
func execJmpChain(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps += uint64(p.steps)
	c.RIP = p.target
	return p.steps, true, nil
}

func execJcc(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	if c.condTaken(p.op) {
		c.RIP = p.target
	} else {
		c.RIP = p.next
	}
	return 1, true, nil
}

// execFusedFlagsJcc is the ALU/cmp+jcc superinstruction: set flags,
// then branch on them, as one fused terminator.
func execFusedFlagsJcc(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps += 2
	c.setFlags(flagResult(c, p.op, p.dst, p.src, p.imm))
	if c.condTaken(p.op2) {
		c.RIP = p.target
	} else {
		c.RIP = p.next
	}
	return 2, true, nil
}

func execMovi(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	c.Reg[p.dst] = uint64(p.imm)
	return 1, false, nil
}

func execMov(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	c.Reg[p.dst] = c.Reg[p.src]
	return 1, false, nil
}

func execFlags(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	c.setFlags(flagResult(c, p.op, p.dst, p.src, p.imm))
	return 1, false, nil
}

func execDiv(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	if c.Reg[p.src] == 0 {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: errDivZero()}
	}
	c.setFlags(c.alu(p.dst, c.Reg[p.dst]/c.Reg[p.src]))
	return 1, false, nil
}

func execLoad(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	v, err := c.M.ReadU64(c.Priv, uint64(int64(c.Reg[p.src])+p.imm))
	if err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.Reg[p.dst] = v
	return 1, false, nil
}

func execStore(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	addr := uint64(int64(c.Reg[p.dst]) + p.imm)
	if err := c.M.WriteU64(c.Priv, addr, c.Reg[p.src]); err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	return 1, e.codeMoved(p), nil
}

func execPush(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	if err := c.push(c.Reg[p.dst]); err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	return 1, e.codeMoved(p), nil
}

func execPop(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	v, err := c.pop()
	if err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.Reg[p.dst] = v
	return 1, false, nil
}

func execLoadg(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	v, err := c.M.ReadU64(c.Priv, uint64(p.imm))
	if err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	c.Reg[p.dst] = v
	return 1, false, nil
}

func execStrg(e *Engine, p *pred) (int, bool, error) {
	c := e.C
	c.Steps++
	if err := c.M.WriteU64(c.Priv, uint64(p.imm), c.Reg[p.src]); err != nil {
		c.RIP = p.addr
		return 1, true, &ExecError{RIP: p.addr, Err: err}
	}
	return 1, e.codeMoved(p), nil
}

// codeMoved re-checks the code epoch after a memory write mid-block. A
// bump means the write may have rewritten code — including this very
// block's later instructions — so the unit ends at the fall-through and
// the next dispatch re-decodes, preserving exact self-modifying-code
// semantics.
func (e *Engine) codeMoved(p *pred) bool {
	if e.C.M.CodeEpoch() == e.epoch {
		return false
	}
	e.C.RIP = p.next
	return true
}

// Run is CPU.Run over block dispatch: execute until the call session
// completes, a trap or fault occurs, or maxSteps instructions retire
// (ErrStepLimit) — with identical semantics to the oracle loop.
func (e *Engine) Run(maxSteps int) error {
	c := e.C
	remaining := maxSteps
	for remaining > 0 {
		if c.Done() {
			return nil
		}
		n, err := e.RunUnit(remaining)
		if err != nil {
			return err
		}
		if n < 1 {
			n = 1
		}
		remaining -= n
	}
	if c.Done() {
		return nil
	}
	return ErrStepLimit
}

// Call is CPU.Call over block dispatch.
func (e *Engine) Call(entry, stackTop uint64, maxSteps int, args ...uint64) (uint64, error) {
	c := e.C
	if len(args) > 5 {
		return 0, errTooManyArgs(len(args))
	}
	c.Reg = [NumRegs]uint64{}
	c.Reg[RegSP] = stackTop
	for i, a := range args {
		c.Reg[1+i] = a
	}
	if err := c.push(StopAddr); err != nil {
		return 0, err
	}
	c.RIP = entry
	if err := e.Run(maxSteps); err != nil {
		return c.Reg[0], err
	}
	return c.Reg[0], nil
}
