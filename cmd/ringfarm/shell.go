package main

import (
	"context"
	"log"
	"os"
	"os/signal"
	"path/filepath"

	"ringsym/internal/campaign"
)

// sweepShell is the scaffolding runCampaign and runFleet share: the output
// directory with its records.jsonl, a context cancelled by an interrupt, the
// optional -events log and the optional -top view.  The caller defers close
// right after openShell succeeds.
type sweepShell struct {
	ctx     context.Context
	outDir  string
	records *os.File
	quiet   bool               // -quiet, or implied by -top: the view replaces the ticker
	stop    context.CancelFunc // releases the interrupt handler
	stopLog func() error       // nil without -events
	stopTop func()             // no-op without -top; idempotent, draws the final frame before the summary
}

// openShell creates the output directory and records.jsonl and attaches the
// requested event consumers.
func openShell(outDir string, quiet, top bool, eventsPath string) (*sweepShell, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	records, err := os.Create(filepath.Join(outDir, "records.jsonl"))
	if err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	sh := &sweepShell{ctx: ctx, outDir: outDir, records: records, quiet: quiet, stop: stop, stopTop: func() {}}
	// Optional event consumers attach BEFORE the run so the campaign.start
	// event is theirs too; with neither flag the bus has no subscriber and
	// every emit site stays a single atomic load.
	if eventsPath != "" {
		stopLog, err := startEventLog(ctx, eventsPath)
		if err != nil {
			sh.close()
			return nil, err
		}
		sh.stopLog = stopLog
	}
	if top {
		sh.quiet = true
		sh.stopTop = startLocalTop(ctx)
	}
	return sh, nil
}

// close releases what openShell acquired, in reverse order.
func (sh *sweepShell) close() {
	sh.stopTop()
	if sh.stopLog != nil {
		if err := sh.stopLog(); err != nil {
			log.Printf("event log: %v", err)
		}
	}
	sh.stop()
	sh.records.Close()
}

// writeSummary writes summary.csv and summary.md for rows and returns the
// Markdown.  The cache columns appear only for cached sweeps, so cache-off
// artefacts stay byte-identical to cache-less builds.
func (sh *sweepShell) writeSummary(rows []campaign.SummaryRow, cached bool) (string, error) {
	csvF, err := os.Create(filepath.Join(sh.outDir, "summary.csv"))
	if err != nil {
		return "", err
	}
	var md string
	if cached {
		err = campaign.WriteSummaryCSVCache(csvF, rows)
		md = campaign.FormatSummaryMarkdownCache(rows)
	} else {
		err = campaign.WriteSummaryCSV(csvF, rows)
		md = campaign.FormatSummaryMarkdown(rows)
	}
	if cerr := csvF.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return md, os.WriteFile(filepath.Join(sh.outDir, "summary.md"), []byte(md), 0o644)
}
