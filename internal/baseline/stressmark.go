package baseline

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/isa"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/ulp430"
)

// StressOptions configures the genetic stressmark search.
type StressOptions struct {
	// Genes is the instruction-slot count of each individual.
	Genes int
	// Population is the GA population size.
	Population int
	// Generations is the number of GA generations.
	Generations int
	// Seed makes the search reproducible.
	Seed int64
	// TargetAverage selects average-power fitness instead of peak
	// instantaneous power (the paper generates both variants).
	TargetAverage bool
}

func (o StressOptions) withDefaults() StressOptions {
	if o.Genes == 0 {
		o.Genes = 24
	}
	if o.Population == 0 {
		o.Population = 16
	}
	if o.Generations == 0 {
		o.Generations = 12
	}
	return o
}

// StressResult is the evolved stressmark and its measured power.
type StressResult struct {
	// Source is the winning stressmark's assembly.
	Source string
	// PeakMW / AvgMW are its measured peak and average power.
	PeakMW, AvgMW float64
	// GuardbandedPeakMW applies the 4/3 guardband (the stressmark is
	// still an empirical measurement and is guardbanded like profiling).
	GuardbandedPeakMW float64
	// GuardbandedNPE is the guardbanded average energy rate (J/cycle).
	GuardbandedNPE float64
	// Evals counts fitness evaluations performed.
	Evals int
}

// gene is one instruction slot: an opcode template plus operand fields.
type gene struct {
	op   int
	rd   int // 0..9 -> r4..r13
	rs   int
	imm  uint16
	slot int // scratch slot 0..7
}

const numTemplates = 14

func (g gene) render() string {
	rd := fmt.Sprintf("r%d", 4+g.rd%10)
	rs := fmt.Sprintf("r%d", 4+g.rs%10)
	switch g.op % numTemplates {
	case 0:
		return fmt.Sprintf("    mov #%d, %s", g.imm, rd)
	case 1:
		return fmt.Sprintf("    mov %s, %s", rs, rd)
	case 2:
		return fmt.Sprintf("    add %s, %s", rs, rd)
	case 3:
		return fmt.Sprintf("    xor %s, %s", rs, rd)
	case 4:
		return fmt.Sprintf("    and #%d, %s", g.imm, rd)
	case 5:
		return fmt.Sprintf("    bis %s, %s", rs, rd)
	case 6:
		return fmt.Sprintf("    swpb %s", rd)
	case 7:
		return fmt.Sprintf("    rra %s", rd)
	case 8:
		return fmt.Sprintf("    rlc %s", rd)
	case 9:
		return fmt.Sprintf("    mov &scratch+%d, %s", 2*(g.slot%8), rd)
	case 10:
		return fmt.Sprintf("    mov %s, &scratch+%d", rs, 2*(g.slot%8))
	case 11:
		return fmt.Sprintf("    mov %s, &0x0130", rs) // MPY operand 1
	case 12:
		return fmt.Sprintf("    mov %s, &0x0138", rs) // OP2: fire multiplier
	case 13:
		return "    mov &0x013a, " + rd // RESLO
	}
	return "    nop"
}

func renderProgram(genes []gene) string {
	var sb strings.Builder
	sb.WriteString(`
.org 0x0300
scratch: .space 8
.org 0xf100
.entry main
main:
    mov #0x0080, &0x0120
    mov #0x0a00, sp
    mov #0xaaaa, r4
    mov #0x5555, r5
    mov #0xff00, r6
    mov #0x00ff, r7
    mov #0xcccc, r8
    mov #0x3333, r9
    mov #0xf0f0, r10
    mov #0x0f0f, r11
    mov #0x9696, r12
    mov #0x6969, r13
`)
	// Two unrolled passes let evolved value patterns feed back once.
	for pass := 0; pass < 2; pass++ {
		for _, g := range genes {
			sb.WriteString(g.render())
			sb.WriteByte('\n')
		}
	}
	sb.WriteString(`
    mov #1, &0x0126
spin:
    jmp spin
`)
	return sb.String()
}

func randGene(r *rand.Rand) gene {
	return gene{
		op:   r.Intn(numTemplates),
		rd:   r.Intn(10),
		rs:   r.Intn(10),
		imm:  uint16(r.Uint32()),
		slot: r.Intn(8),
	}
}

// Stressmark evolves a power stressmark for the design (Kim et al.'s
// AUDIT approach retargeted at peak/average power, as the paper's
// methodology describes).
func Stressmark(nl *netlist.Netlist, m power.Model, opts StressOptions) (StressResult, error) {
	opts = opts.withDefaults()
	r := rand.New(rand.NewSource(opts.Seed))

	evaluate := func(genes []gene) (peak, avg float64, src string, err error) {
		src = renderProgram(genes)
		img, err := isa.Assemble("stressmark", src)
		if err != nil {
			return 0, 0, "", fmt.Errorf("baseline: stressmark render: %w", err)
		}
		sys, err := ulp430.NewSystem(nl, m.Lib, img, ulp430.ConcreteInputs, nil)
		if err != nil {
			return 0, 0, "", err
		}
		run, err := power.RunConcrete(sys, m, 200000, 0, nil)
		if err != nil {
			return 0, 0, "", fmt.Errorf("baseline: stressmark: %w", err)
		}
		sum := 0.0
		for _, p := range run.Trace {
			sum += p
		}
		return run.PeakMW, sum / float64(len(run.Trace)), src, nil
	}

	pop := make([][]gene, opts.Population)
	for i := range pop {
		genes := make([]gene, opts.Genes)
		for j := range genes {
			genes[j] = randGene(r)
		}
		pop[i] = genes
	}

	type scored struct {
		genes     []gene
		peak, avg float64
		fit       float64
		src       string
	}
	evals := 0
	score := func(genes []gene) (scored, error) {
		peak, avg, src, err := evaluate(genes)
		if err != nil {
			return scored{}, err
		}
		evals++
		fit := peak
		if opts.TargetAverage {
			fit = avg
		}
		return scored{genes, peak, avg, fit, src}, nil
	}

	var best scored
	cur := make([]scored, len(pop))
	for i, genes := range pop {
		s, err := score(genes)
		if err != nil {
			return StressResult{}, err
		}
		cur[i] = s
		if s.fit > best.fit {
			best = s
		}
	}

	tournament := func() []gene {
		a, b := cur[r.Intn(len(cur))], cur[r.Intn(len(cur))]
		if a.fit >= b.fit {
			return a.genes
		}
		return b.genes
	}

	for gen := 0; gen < opts.Generations; gen++ {
		next := make([][]gene, 0, len(pop))
		next = append(next, best.genes) // elitism
		for len(next) < len(pop) {
			pa, pb := tournament(), tournament()
			cut := r.Intn(opts.Genes)
			child := make([]gene, opts.Genes)
			copy(child, pa[:cut])
			copy(child[cut:], pb[cut:])
			for j := range child {
				if r.Float64() < 0.10 {
					child[j] = randGene(r)
				}
			}
			next = append(next, child)
		}
		for i, genes := range next {
			s, err := score(genes)
			if err != nil {
				return StressResult{}, err
			}
			cur[i] = s
			if s.fit > best.fit {
				best = s
			}
		}
	}

	return StressResult{
		Source:            best.src,
		PeakMW:            best.peak,
		AvgMW:             best.avg,
		GuardbandedPeakMW: best.peak * Guardband,
		GuardbandedNPE:    best.avg * Guardband * 1e-3 / m.ClockHz,
		Evals:             evals,
	}, nil
}
