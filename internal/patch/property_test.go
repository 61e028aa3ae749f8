package patch

// Property-based pipeline test: generate random kernel modules with
// arbitrary (forward-branching) control flow, calls, and global
// accesses; mutate a random subset of functions; run the full pipeline
// (Build → Prepare → apply to a live machine) and require that every
// function of the live-patched kernel behaves *identically* to a
// kernel rebuilt from the post source — same return values, same
// global side effects — over randomized inputs. This exercises
// trampoline arithmetic, relocation fix-ups (internal branches,
// cross-function calls, absolute global references), ftrace skipping,
// and mem_X placement against inputs no hand-written test would
// enumerate.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kshot/internal/isa"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
)

// genFunc emits one random function. Branches only jump forward and
// calls only target higher-numbered functions, so execution always
// terminates.
func genFunc(r *rand.Rand, name string, callees, globals []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".func %s\n", name)
	// Scratch init from the arguments.
	fmt.Fprintf(&b, "    mov r6, r1\n    mov r7, r2\n    movi r8, %d\n", r.Intn(100))

	n := 4 + r.Intn(10)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".L%d:\n", i)
		switch r.Intn(8) {
		case 0:
			fmt.Fprintf(&b, "    addi r6, %d\n", r.Intn(50)+1)
		case 1:
			fmt.Fprintf(&b, "    add r6, r7\n")
		case 2:
			fmt.Fprintf(&b, "    mul r7, r8\n")
		case 3:
			fmt.Fprintf(&b, "    sub r8, r6\n")
		case 4:
			if len(globals) > 0 {
				g := globals[r.Intn(len(globals))]
				if r.Intn(2) == 0 {
					fmt.Fprintf(&b, "    loadg r9, %s\n    add r6, r9\n", g)
				} else {
					fmt.Fprintf(&b, "    storeg %s, r6\n", g)
				}
			} else {
				fmt.Fprintf(&b, "    addi r7, 3\n")
			}
		case 5:
			if len(callees) > 0 {
				c := callees[r.Intn(len(callees))]
				// Preserve scratch across the call per our convention
				// (callee clobbers everything): stash r6 on the stack.
				fmt.Fprintf(&b, "    push r6\n    push r7\n    push r8\n")
				fmt.Fprintf(&b, "    mov r1, r6\n    mov r2, r8\n    call %s\n", c)
				fmt.Fprintf(&b, "    pop r8\n    pop r7\n    pop r6\n    add r6, r0\n")
			} else {
				fmt.Fprintf(&b, "    xor r9, r9\n")
			}
		case 6:
			// Forward conditional branch to a later label.
			tgt := i + 1 + r.Intn(n-i)
			ops := []string{"jz", "jnz", "jl", "jg", "jle", "jge"}
			fmt.Fprintf(&b, "    cmpi r6, %d\n    %s .L%d\n", r.Intn(200), ops[r.Intn(len(ops))], tgt)
		default:
			fmt.Fprintf(&b, "    shl r7, r8\n    movi r8, %d\n", r.Intn(7)+1)
		}
	}
	fmt.Fprintf(&b, ".L%d:\n", n)
	fmt.Fprintf(&b, "    mov r0, r6\n    add r0, r7\n    ret\n.endfunc\n")
	return b.String()
}

// genModule builds a random subsystem file of nf functions and ng
// globals; function i may call functions j > i.
func genModule(r *rand.Rand, nf, ng int) (string, []string, []string) {
	var globals []string
	var b strings.Builder
	for i := 0; i < ng; i++ {
		g := fmt.Sprintf("pp_g%d", i)
		globals = append(globals, g)
		fmt.Fprintf(&b, ".global %s 8\n", g)
	}
	names := make([]string, nf)
	for i := range names {
		names[i] = fmt.Sprintf("pp_f%d", i)
	}
	// Emit in reverse order so callees exist textually (order doesn't
	// matter for linking, but keeps the call DAG obvious).
	for i := nf - 1; i >= 0; i-- {
		b.WriteString(genFunc(r, names[i], names[i+1:], globals))
	}
	return b.String(), names, globals
}

// buildKernelWith builds a 4.4 kernel with the module file injected.
func buildKernelWith(t *testing.T, moduleSrc string) (*isa.Image, *isa.Unit, *kernel.SourceTree) {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	st.AddFile("pp/module.asm", moduleSrc)
	img, unit, err := st.Build()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, moduleSrc)
	}
	return img, unit, st
}

// bootFor boots a machine around an image.
func bootFor(t *testing.T, img *isa.Image, st *kernel.SourceTree) *kernel.Kernel {
	t.Helper()
	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := kernel.Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestQuickPipelineEquivalence is the pipeline's golden property.
func TestQuickPipelineEquivalence(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + round)))
			nf := 2 + r.Intn(4)
			ng := 1 + r.Intn(3)
			preSrc, names, globals := genModule(r, nf, ng)

			// Mutate 1..nf functions by regenerating them with a
			// different seed (arbitrary behaviour change).
			r2 := rand.New(rand.NewSource(int64(9000 + round)))
			postSrc := preSrc
			nMut := 1 + r.Intn(nf)
			for i := 0; i < nMut; i++ {
				idx := r.Intn(nf)
				oldFn := extractFunc(preSrc, names[idx])
				newFn := genFunc(r2, names[idx], names[idx+1:], globals)
				postSrc = strings.Replace(postSrc, oldFn, newFn, 1)
			}
			if postSrc == preSrc {
				t.Skip("mutation produced identical source")
			}

			preImg, preUnit, st := buildKernelWith(t, preSrc)
			postImg, postUnit, _ := buildKernelWith(t, postSrc)

			bp, err := Build("PP", "4.4", ImagePair{preImg, preUnit}, ImagePair{postImg, postUnit})
			if err != nil {
				t.Fatalf("build patch: %v", err)
			}
			place := defaultPlacement()
			prep, err := Prepare(bp, preImg.Symbols, place, 0, 0)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}

			patched := bootFor(t, preImg, st)
			applyPrepared(t, patched.M, prep)
			reference := bootFor(t, postImg, st)

			// Probe every function with random inputs; return value
			// and all global side effects must agree.
			for probe := 0; probe < 6; probe++ {
				a1 := uint64(r.Intn(1000))
				a2 := uint64(r.Intn(1000))
				for gi, g := range globals {
					seed := uint64(gi*13 + probe*7)
					if err := patched.WriteGlobal(g, seed); err != nil {
						t.Fatal(err)
					}
					if err := reference.WriteGlobal(g, seed); err != nil {
						t.Fatal(err)
					}
				}
				for _, fn := range names {
					got, err1 := patched.Call(0, fn, a1, a2)
					want, err2 := reference.Call(0, fn, a1, a2)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s(%d,%d): patched err=%v reference err=%v", fn, a1, a2, err1, err2)
					}
					if err1 != nil {
						continue // both faulted identically (e.g. step limit)
					}
					if got != want {
						t.Fatalf("%s(%d,%d) = %d on patched kernel, %d on rebuilt kernel\npre:\n%s\npost:\n%s",
							fn, a1, a2, got, want, preSrc, postSrc)
					}
				}
				for _, g := range globals {
					gv, _ := patched.ReadGlobal(g)
					wv, _ := reference.ReadGlobal(g)
					if gv != wv {
						t.Fatalf("global %s diverged: %d vs %d", g, gv, wv)
					}
				}
			}
		})
	}
}

// extractFunc returns the full ".func name ... .endfunc" block.
func extractFunc(src, name string) string {
	start := strings.Index(src, ".func "+name+"\n")
	if start < 0 {
		panic("function not found: " + name)
	}
	end := strings.Index(src[start:], ".endfunc\n")
	return src[start : start+end+len(".endfunc\n")]
}
