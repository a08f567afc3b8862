package eval

import (
	"fmt"
	"io"
	"sort"
)

// Tabler is any experiment report that renders a paper-style table.
type Tabler interface{ Table() string }

// Experiment names accepted by Run.
const (
	ExpFig3  = "fig3"
	ExpFig4  = "fig4"
	ExpFig6  = "fig6"
	ExpFig7  = "fig7"
	ExpFig8  = "fig8"
	ExpFig9  = "fig9"
	ExpFig10 = "fig10"
	ExpFig13 = "fig13"
	ExpFig14 = "fig14"
	ExpFig15 = "fig15"
	ExpCrawl = "crawl"
	ExpAsync = "async"
	ExpAdv   = "adversarial"
	ExpObf   = "obfuscation"
	ExpQuant = "quant"
)

// Experiments lists every runnable experiment id in presentation order.
func Experiments() []string {
	return []string{
		ExpFig3, ExpFig4, ExpFig6, ExpFig7, ExpFig8, ExpFig9,
		ExpFig10, ExpFig13, ExpFig14, ExpFig15, ExpCrawl, ExpAsync,
		ExpAdv, ExpObf, ExpQuant,
	}
}

// titles maps experiment ids to the paper artifacts they regenerate.
var titles = map[string]string{
	ExpFig3:  "Fig. 3 — architecture and model-size comparison",
	ExpFig4:  "Fig. 4 — Grad-CAM salience maps",
	ExpFig6:  "Fig. 6 — EasyList coverage of the corpus",
	ExpFig7:  "Fig. 7 — replicating EasyList labels",
	ExpFig8:  "Fig. 8 — external (Hussain et al.) dataset",
	ExpFig9:  "Fig. 9 — non-English languages",
	ExpFig10: "Fig. 10 — Facebook ads and sponsored content",
	ExpFig13: "Fig. 13 — Google Image Search probes",
	ExpFig14: "Fig. 14 — render-time distributions",
	ExpFig15: "Fig. 15 — render-time overhead",
	ExpCrawl: "§4.4 — crawler methodology comparison",
	ExpAsync: "§1/§6 — synchronous vs render-first (memoized) classification",
	ExpAdv:   "§6/§7 — adversarial (FGSM) exposure probe",
	ExpObf:   "§2.2/§7 — overlay-mask obfuscation vs element-based blocking",
	ExpQuant: "INT8 — quantized engine vs FP32 (accuracy delta, latency)",
}

// Title returns the human-readable title for an experiment id.
func Title(id string) string { return titles[id] }

// Run executes one experiment by id and returns its report.
func (h *Harness) Run(id string) (Tabler, error) {
	switch id {
	case ExpFig3:
		return h.Fig3()
	case ExpFig4:
		return h.Fig4()
	case ExpFig6:
		return h.Fig6()
	case ExpFig7:
		return h.Fig7()
	case ExpFig8:
		return h.Fig8()
	case ExpFig9:
		return h.Fig9()
	case ExpFig10:
		return h.Fig10()
	case ExpFig13:
		return h.Fig13()
	case ExpFig14:
		return h.Fig14()
	case ExpFig15:
		f14, err := h.Fig14()
		if err != nil {
			return nil, err
		}
		return h.Fig15(f14)
	case ExpCrawl:
		return h.CrawlComparison()
	case ExpAsync:
		return h.AsyncMemoization()
	case ExpAdv:
		return h.Adversarial()
	case ExpObf:
		return h.Obfuscation()
	case ExpQuant:
		return h.Quant()
	default:
		return nil, fmt.Errorf("eval: unknown experiment %q (known: %v)", id, Experiments())
	}
}

// RunAll executes every experiment in order, writing each table to w.
// Fig. 14's report is reused for Fig. 15 so pages render once.
func (h *Harness) RunAll(w io.Writer) error {
	var f14 *Fig14Report
	for _, id := range Experiments() {
		fmt.Fprintf(w, "\n=== %s ===\n", Title(id))
		var rep Tabler
		var err error
		switch id {
		case ExpFig14:
			f14, err = h.Fig14()
			rep = f14
		case ExpFig15:
			if f14 == nil {
				if f14, err = h.Fig14(); err != nil {
					return err
				}
			}
			rep, err = h.Fig15(f14)
		default:
			rep, err = h.Run(id)
		}
		if err != nil {
			return fmt.Errorf("eval: %s: %w", id, err)
		}
		fmt.Fprint(w, rep.Table())
	}
	return nil
}

// SortedTitles returns "id: title" lines for CLI help.
func SortedTitles() []string {
	out := make([]string, 0, len(titles))
	for id, t := range titles {
		out = append(out, id+": "+t)
	}
	sort.Strings(out)
	return out
}
