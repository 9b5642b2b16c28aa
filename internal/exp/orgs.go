package exp

import (
	"fmt"

	"ldis/internal/cache"
	"ldis/internal/costmodel"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/wordstore"
)

// The orgs experiment places the three related-work organization
// variants next to the designs they modify:
//
//	col 0  base      1MB 8-way traditional cache;
//	col 1  waymemo   the same cache with way memoization (arXiv
//	                 0710.4703) — functionally transparent, the memo
//	                 counters price skipped tag probes;
//	col 2  ldis      plain distill cache (2 WOC ways, per-word tags);
//	col 3  touche    the distill cache with Touché compressed
//	                 superblock tags (arXiv 1909.00553) — less tag
//	                 area, alias-safe misses instead of false hits;
//	col 4  copyback  the distill cache with reuse-distance-gated clean
//	                 copy-back of L1 victims (arXiv 2105.14442).

// Orgs geometry: the paper's shared 1MB, 8-way, 64B-line L2.
const (
	orgSizeBytes = 1 << 20
	orgWays      = 8
	orgWOCWays   = 2
)

// orgColumns names the experiment's columns in order.
var orgColumns = []string{"base", "waymemo", "ldis", "touche", "copyback"}

// orgCell is one (benchmark, organization) result. Everything is
// plain exported data so cells gob round-trip through the checkpoint.
type orgCell struct {
	Org    string
	Totals hierarchy.WindowTotals

	// Touché column counters (whole run, not just the window).
	Touche wordstore.ToucheStats
	// Copy-back column counters.
	CopyBacks, CopyBackFar, CopyBackCold uint64
	// Way-memo column counters.
	MemoRefs, MemoHits, MemoSkipped uint64
}

// orgDistill is the distill configuration the ldis/touche/copyback
// columns share before their per-column extension.
func orgDistill(name string, seed uint64) distill.Config {
	return distill.Config{
		Name: name, SizeBytes: orgSizeBytes, Ways: orgWays, WOCWays: orgWOCWays, Seed: seed,
	}
}

// runOrgGrid is the orgs experiment's cell scheduler: a named wrapper
// over runGrid so the gridpure analyzer covers the orgs cells exactly
// like every other experiment's.
func runOrgGrid(o Options, cols int, fn func(prof *benchmark, col int, co *obs.Cell) (orgCell, error)) ([]string, [][]orgCell, error) {
	return runGrid(o, cols, fn)
}

// OrgsRow is one benchmark's cells across the five organizations.
type OrgsRow struct {
	Benchmark string
	Cells     []orgCell // indexed like orgColumns
}

// Orgs runs the related-work organization sweep.
func Orgs(o Options) ([]OrgsRow, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runOrgGrid(o, len(orgColumns), func(prof *benchmark, col int, co *obs.Cell) (orgCell, error) {
		return orgCellRun(o, prof, col, co)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]OrgsRow, len(names))
	for i, name := range names {
		rows[i] = OrgsRow{Benchmark: name, Cells: grid[i]}
	}
	return rows, nil
}

// orgCellRun simulates one cell.
func orgCellRun(o Options, prof *benchmark, col int, co *obs.Cell) (orgCell, error) {
	cell := orgCell{Org: orgColumns[col]}
	switch cell.Org {
	case "base":
		cell.Totals, _ = runTradWindowed(cache.Config{Name: "orgs-base", SizeBytes: orgSizeBytes, Ways: orgWays}, prof, o, co)
	case "waymemo":
		cfg := cache.Config{
			Name: "orgs-waymemo", SizeBytes: orgSizeBytes, Ways: orgWays,
			WayMemo: &cache.WayMemoConfig{EntriesPerSet: o.orgWayMemoEntries()},
		}
		tw, c := runTradWindowed(cfg, prof, o, co)
		cell.Totals = tw
		st := c.Stats()
		cell.MemoRefs, cell.MemoHits, cell.MemoSkipped = st.MemoRefs, st.MemoHits, st.MemoProbesSkipped
	case "ldis":
		sys, _ := distillSystem(orgDistill("orgs-ldis", prof.Seed), co)
		cell.Totals = runWindowed(sys, prof, o, co).Totals()
	case "touche":
		cfg := orgDistill("orgs-touche", prof.Seed)
		cfg.Touche = &wordstore.ToucheConfig{SuperblockLines: o.orgToucheSBLines(), Seed: prof.Seed}
		sys, dc := distillSystem(cfg, co)
		cell.Totals = runWindowed(sys, prof, o, co).Totals()
		cell.Touche = dc.Stats().Touche
	case "copyback":
		cfg := orgDistill("orgs-copyback", prof.Seed)
		cfg.CopyBack = &distill.CopyBackConfig{MaxReuseBytes: o.orgCopyBackMaxReuse(), Seed: prof.Seed}
		sys, dc := distillSystem(cfg, co)
		cell.Totals = runWindowed(sys, prof, o, co).Totals()
		st := dc.Stats()
		cell.CopyBacks, cell.CopyBackFar, cell.CopyBackCold = st.CopyBacks, st.CopyBackFar, st.CopyBackCold
	default:
		return orgCell{}, fmt.Errorf("exp: unknown org column %d", col)
	}
	return cell, nil
}

// orgToucheParams maps the experiment's Touché knobs onto the cost
// model (geometry already matches costmodel.Defaults: 1MB, 8 ways, 2
// WOC ways, 64B lines).
func (o Options) orgToucheParams() costmodel.ToucheParams {
	t := costmodel.ToucheDefaults()
	t.SuperblockLines = o.orgToucheSBLines()
	return t
}

// orgsMPKITable is the headline comparison.
func orgsMPKITable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Organizations: MPKI by cache organization",
		"benchmark", "base", "waymemo", "ldis", "touche", "copyback")
	for _, r := range rows {
		cells := make([]any, 0, len(r.Cells)+1)
		cells = append(cells, r.Benchmark)
		for _, c := range r.Cells {
			cells = append(cells, fmt.Sprintf("%.3f", c.Totals.MPKI()))
		}
		t.AddRow(cells...)
	}
	return t
}

// orgsToucheTable reports the compressed-tag column's behaviour (alias
// safety is a structural invariant; the table shows how often it was
// exercised) and the static area comparison from the cost model.
func orgsToucheTable(rows []OrgsRow, o Options) []*stats.Table {
	dyn := stats.NewTable("Touché tags: dynamic behaviour vs per-word LDIS tags",
		"benchmark", "lookups", "hits", "alias safe-miss", "ck collisions", "alias evict", "sb evict", "ldis MPKI", "touche MPKI")
	for _, r := range rows {
		ts := r.Cells[3].Touche
		dyn.AddRow(r.Benchmark,
			fmt.Sprint(ts.Lookups), fmt.Sprint(ts.Hits),
			fmt.Sprint(ts.AliasSafeMisses), fmt.Sprint(ts.ChecksumCollisions),
			fmt.Sprint(ts.AliasEvictions), fmt.Sprint(ts.SuperblockEvictions),
			fmt.Sprintf("%.3f", r.Cells[2].Totals.MPKI()),
			fmt.Sprintf("%.3f", r.Cells[3].Totals.MPKI()))
	}
	area := stats.NewTable("Touché tags: WOC tag area (static, from the cost model)",
		"layout", "word entry bits", "shared entries", "tag bytes", "savings")
	ta, err := costmodel.ToucheTagArea(costmodel.Defaults(), o.orgToucheParams())
	if err == nil {
		ldis, _ := costmodel.DistillStorage(costmodel.Defaults())
		area.AddRow("ldis per-word", fmt.Sprint(ldis.WOCTagEntryBits), "0",
			fmt.Sprint(ldis.WOCTagBytes), "-")
		area.AddRow("touche", fmt.Sprint(ta.WordEntryBits), fmt.Sprint(ta.SuperblockEntries),
			fmt.Sprint(ta.TagBytes), fmt.Sprintf("%.1f%%", ta.SavingsPercent))
	}
	return []*stats.Table{dyn, area}
}

// orgsCopyBackTable reports the predictor's admission decisions and
// the resulting miss delta against the plain distill column.
func orgsCopyBackTable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Clean copy-back: reuse-gated WOC installs of clean L1 victims",
		"benchmark", "copybacks", "far", "cold", "ldis misses", "copyback misses", "miss delta")
	for _, r := range rows {
		ld, cb := r.Cells[2], r.Cells[4]
		delta := "-"
		if ld.Totals.Misses > 0 {
			delta = fmt.Sprintf("%+.2f%%",
				100*(float64(cb.Totals.Misses)-float64(ld.Totals.Misses))/float64(ld.Totals.Misses))
		}
		t.AddRow(r.Benchmark,
			fmt.Sprint(cb.CopyBacks), fmt.Sprint(cb.CopyBackFar), fmt.Sprint(cb.CopyBackCold),
			fmt.Sprint(ld.Totals.Misses), fmt.Sprint(cb.Totals.Misses), delta)
	}
	return t
}

// orgsWayMemoTable prices the memo column's tag-probe savings. The
// MPKI columns double as the transparency check: they must match.
func orgsWayMemoTable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Way memoization: tag-probe energy vs the same cache without a memo",
		"benchmark", "base MPKI", "memo MPKI", "memo hits", "hit rate", "tag energy saved")
	for _, r := range rows {
		wm := r.Cells[1]
		hitRate := "-"
		if wm.MemoRefs > 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*float64(wm.MemoHits)/float64(wm.MemoRefs))
		}
		saved := "-"
		if e, err := costmodel.WayMemoEnergyFor(orgWays, wm.MemoRefs, wm.MemoHits); err == nil {
			saved = fmt.Sprintf("%.1f%%", e.SavedPercent)
		}
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.3f", r.Cells[0].Totals.MPKI()),
			fmt.Sprintf("%.3f", wm.Totals.MPKI()),
			fmt.Sprint(wm.MemoHits), hitRate, saved)
	}
	return t
}

// OrgsTables renders the headline MPKI table plus one table per
// variant.
func OrgsTables(rows []OrgsRow, o Options) []*stats.Table {
	tables := []*stats.Table{orgsMPKITable(rows)}
	tables = append(tables, orgsToucheTable(rows, o)...)
	tables = append(tables, orgsCopyBackTable(rows), orgsWayMemoTable(rows))
	return tables
}

func init() {
	registerExp("orgs", "related-work organizations: Touché tags, clean copy-back, way memoization vs base and LDIS", func(o Options) ([]*stats.Table, error) {
		rows, err := Orgs(o)
		if err != nil {
			return nil, err
		}
		return OrgsTables(rows, o), nil
	})
}
