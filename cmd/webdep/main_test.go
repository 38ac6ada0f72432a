package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
)

// lines is a stderr that also hands each complete line to fn, on the
// writing goroutine — how a test, like an operator's script, reacts to the
// progress a command prints.
type lines struct {
	mu  sync.Mutex
	buf bytes.Buffer
	n   int // bytes of buf already handed to fn
	fn  func(line string)
}

func (l *lines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	for {
		rest := l.buf.Bytes()[l.n:]
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.n += i + 1
		if l.fn != nil {
			l.fn(string(rest[:i]))
		}
	}
}

func (l *lines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// webdep runs one command line through the front door, exactly as main
// does, and returns what it printed.
func webdep(args ...string) (stdout, stderr string, err error) {
	var out bytes.Buffer
	errs := &lines{}
	err = run(context.Background(), args, &out, errs)
	return out.String(), errs.String(), err
}

func mustRun(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := webdep(args...)
	if err != nil {
		t.Fatalf("webdep %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout, stderr
}

var answeringOn = regexp.MustCompile(`answering .* on (?:http://)?([^/\s]+)`)

// start runs a long-running command (serve, vantage) until ctx ends and
// returns the address it bound, read from the "answering ... on ADDR" line
// it prints to stderr, plus the channel its exit status arrives on.
func start(t *testing.T, ctx context.Context, args ...string) (addr string, done <-chan error) {
	t.Helper()
	addrs := make(chan string, 1)
	errs := &lines{fn: func(line string) {
		if m := answeringOn.FindStringSubmatch(line); m != nil {
			addrs <- m[1]
		}
	}}
	exited := make(chan error, 1)
	go func() { exited <- run(ctx, args, io.Discard, errs) }()
	select {
	case addr = <-addrs:
		return addr, exited
	case err := <-exited:
		t.Fatalf("webdep %s exited before announcing an address: %v\n%s", strings.Join(args, " "), err, errs)
		return "", nil
	}
}

func readCSV(t *testing.T, dir, cc string) *dataset.CountryList {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "2023-05", cc+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	list, err := dataset.ReadCSV(f, "2023-05")
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// sameCSVs requires the two exports' CSVs for the countries to be byte-equal.
func sameCSVs(t *testing.T, what, wantDir, gotDir string, ccs ...string) {
	t.Helper()
	for _, cc := range ccs {
		want, err := os.ReadFile(filepath.Join(wantDir, "2023-05", cc+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, "2023-05", cc+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %s", cc, what)
		}
	}
}

func TestSplitListUppercases(t *testing.T) {
	got := splitList(" th , ir ")
	if len(got) != 2 || got[0] != "TH" || got[1] != "IR" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty input should be nil")
	}
}

func TestRunFastModeExportsCSV(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "export", "-seed", "5", "-sites", "120", "-out", dir, "-countries", "th,US", "-zones", "-workers", "4")
	for _, cc := range []string{"TH", "US"} {
		if list := readCSV(t, dir, cc); list.Country != cc || len(list.Sites) != 120 {
			t.Errorf("%s: country %s, %d sites", cc, list.Country, len(list.Sites))
		}
	}
	// -zones was set: master files must exist and be non-trivial.
	entries, err := os.ReadDir(filepath.Join(dir, "zones"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("zone export: %v (%d files)", err, len(entries))
	}
	foundNSInfra := false
	for _, e := range entries {
		if e.Name() == "nsinfra.zone" {
			foundNSInfra = true
		}
	}
	if !foundNSInfra {
		t.Error("nsinfra.zone missing from zone export")
	}
}

func TestRunSecondEpoch(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, "export", "-seed", "5", "-sites", "80", "-out", dir, "-countries", "BR", "-epoch2", "-workers", "2")
	for _, epoch := range []string{"2023-05", "2025-05"} {
		if _, err := os.Stat(filepath.Join(dir, epoch, "BR.csv")); err != nil {
			t.Errorf("epoch %s missing: %v", epoch, err)
		}
	}
}

// TestRunScoreReproducesExport: score over the store an export persisted
// writes the same CSVs and prints the same summary and graph tables,
// without building a world.
func TestRunScoreReproducesExport(t *testing.T) {
	exported, scored, store := t.TempDir(), t.TempDir(), filepath.Join(t.TempDir(), "store")
	want, _ := mustRun(t, "export", "-seed", "5", "-sites", "60", "-countries", "TH,US", "-out", exported,
		"-store", store, "-spof", "-what-if", "Cloudflare")
	got, _ := mustRun(t, "score", "-out", scored, "-spof", "-what-if", "Cloudflare", store)
	if got != want {
		t.Errorf("score printed\n%s\nexport printed\n%s", got, want)
	}
	sameCSVs(t, "score export differs from the export that wrote the store", exported, scored, "TH", "US")
}

func TestRunLiveMode(t *testing.T) {
	dir := t.TempDir()
	// -fail-fast with the default 1.0 threshold: a healthy in-process world
	// must crawl with full coverage, so the strictest setting still passes.
	mustRun(t, "crawl", "-seed", "5", "-sites", "25", "-out", dir, "-countries", "CZ", "-workers", "8", "-fail-fast")
	list := readCSV(t, dir, "CZ")
	if len(list.Sites) != 25 {
		t.Fatalf("live export has %d sites", len(list.Sites))
	}
	// Live crawl must have attributed providers.
	attributed := 0
	for i := range list.Sites {
		if list.Sites[i].HostProvider != "" {
			attributed++
		}
	}
	if attributed != 25 {
		t.Errorf("only %d/25 sites attributed in live mode", attributed)
	}
}

func TestRunRejectsUnknownCountry(t *testing.T) {
	if _, _, err := webdep("export", "-seed", "5", "-sites", "50", "-out", t.TempDir(), "-countries", "XX"); err == nil {
		t.Fatal("unknown country accepted")
	}
}

// TestNoCommandPrintsTheCommandList: without a command — including the
// flags-first form this CLI had before its modes became commands — webdep
// lists its commands and fails.
func TestNoCommandPrintsTheCommandList(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-live", "-countries", "TH"}} {
		_, stderr, err := webdep(args...)
		if err == nil {
			t.Errorf("webdep %v succeeded", args)
		}
		for _, cmd := range commands {
			if !strings.Contains(stderr, "\n  "+cmd.name+" ") {
				t.Errorf("webdep %v: usage does not list %q:\n%s", args, cmd.name, stderr)
			}
		}
	}
}

// flagNames returns the flags a command registers, read back from the same
// bind the parser uses.
func flagNames(bind func(*flag.FlagSet, *common) (body, func() error)) map[string]bool {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bind(fs, bindCommon(fs))
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// TestCommandsOwnTheirFlags is the cross-mode half of the old validation
// matrix, generated instead of listed: a flag registered on any other
// command and not on this one is a parse error here, and this command's -h
// does not mention it. The total stays under the 27 flags the flat
// namespace had.
func TestCommandsOwnTheirFlags(t *testing.T) {
	all := map[string]bool{}
	for _, cmd := range commands {
		for name := range flagNames(cmd.bind) {
			all[name] = true
		}
	}
	if len(all) > 24 {
		t.Errorf("%d distinct flags across all commands, want <= 24", len(all))
	}
	for _, cmd := range commands {
		own := flagNames(cmd.bind)
		var help bytes.Buffer
		if _, err := parse([]string{cmd.name, "-h"}, &help); err != flag.ErrHelp {
			t.Errorf("%s -h: %v", cmd.name, err)
		}
		for name := range all {
			listed := regexp.MustCompile(`(?m)^  -` + regexp.QuoteMeta(name) + `\b`).Match(help.Bytes())
			if listed != own[name] {
				t.Errorf("%s -h lists -%s: %v, registered: %v", cmd.name, name, listed, own[name])
			}
			if own[name] {
				continue
			}
			_, err := parse([]string{cmd.name, "-" + name, "x"}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("%s -%s: error %v does not reject the foreign flag by name", cmd.name, name, err)
			}
		}
	}
}

// TestFlagMatrixValidation walks the contradictory combinations the flat
// flag namespace had to police, each as the command line an operator would
// type today. Every rejection happens in parse — before any world building
// — and names the offending flag so the error doubles as usage help. The
// first block is the rules that survive inside a command; everything after
// it is rejected by the flag package because the command never registered
// the flag (TestCommandsOwnTheirFlags proves that for every pair, these
// rows keep the historical cases by name).
func TestFlagMatrixValidation(t *testing.T) {
	cases := []struct {
		name string
		args string
		want string // substring the usage error must contain
	}{
		{"resume without checkpoint", "crawl -resume", "-resume"},
		{"negative federate", "crawl -checkpoint d -federate -2", "-federate"},
		{"federate without checkpoint", "crawl -federate 3", "-checkpoint"},
		{"federate with resume", "crawl -checkpoint d -federate 3 -resume", "-resume"},
		{"federate with fail-fast", "crawl -checkpoint d -federate 2 -fail-fast", "-fail-fast"},
		{"serve a store with world flags", "serve -store s -countries TH -seed 4", "-countries -seed"},
		{"transport without federate", "crawl -transport http://v -vantage-key k", "-federate"},
		{"transport url count mismatch", "crawl -checkpoint d -federate 2 -transport http://v -vantage-key k", "-transport"},
		{"transport without key", "crawl -checkpoint d -federate 2 -transport http://a,http://b", "-vantage-key"},
		{"transport with wrong key count", "crawl -checkpoint d -federate 3 -transport http://a,http://b,http://c -vantage-key a,b", "-vantage-key"},
		{"vantage-key without a mode", "crawl -vantage-key k", "-vantage-key"},
		{"serve-vantage without key", "vantage -addr :0", "-key"},
		{"serve-vantage with two keys", "vantage -addr :0 -key a,b", "-key"},
		{"merge without a directory", "merge -out d", "DIR"},
		{"score with two stores", "score s t", "STORE"},
		{"export with a stray argument", "export -countries TH data/", "data/"},

		{"checkpoint without live", "export -checkpoint d", "-checkpoint"},
		{"federate without live", "export -federate 3", "-federate"},
		{"merge with live", "merge -live d", "-live"},
		{"merge with federate", "merge -federate 2 d", "-federate"},
		{"merge with from-store", "merge -from-store s d", "-from-store"},
		{"merge with checkpoint", "merge -checkpoint c d", "-checkpoint"},
		{"merge with epoch2", "merge -epoch2 d", "-epoch2"},
		{"merge with zones", "merge -zones d", "-zones"},
		{"from-store with live", "score -live s", "-live"},
		{"from-store with store", "score -store t s", "-store"},
		{"from-store with epoch2", "score -epoch2 s", "-epoch2"},
		{"from-store with zones", "score -zones s", "-zones"},
		{"serve-vantage with federate", "vantage -key k -federate 2", "-federate"},
		{"serve-vantage with transport", "vantage -key k -transport http://v", "-transport"},
		{"serve-vantage with merge", "vantage -key k -merge d", "-merge"},
		{"serve-vantage with from-store", "vantage -key k -store s", "-store"},
		{"serve-vantage with live", "vantage -key k -live", "-live"},
		{"serve-vantage with checkpoint", "vantage -key k -checkpoint d", "-checkpoint"},
		{"serve-vantage with epoch2", "vantage -key k -epoch2", "-epoch2"},
		{"serve with live", "serve -live", "-live"},
		{"serve with federate", "serve -checkpoint d -federate 2", "-checkpoint"},
		{"serve with merge", "serve -merge d", "-merge"},
		{"serve with serve-vantage", "serve -key k", "-key"},
		{"serve with store", "serve -from-store s -store t", "-from-store"},
		{"serve with epoch2", "serve -epoch2", "-epoch2"},
		{"serve with zones", "serve -zones", "-zones"},
		{"serve with spof", "serve -spof", "-spof"},
		{"serve with what-if", "serve -what-if Cloudflare", "-what-if"},
		{"reload-store with from-store", "serve -reload-store r -from-store s", "-reload-store"},
		{"reload-store with live", "crawl -reload-store r", "-reload-store"},
		{"reload-store with merge", "merge -reload-store r d", "-reload-store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(strings.Fields(tc.args), io.Discard)
			if err == nil {
				t.Fatalf("webdep %s accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}

	// The valid shapes of the same flags must still parse.
	for _, ok := range []string{
		"export",
		"crawl -checkpoint d -resume",
		"crawl -checkpoint d -federate 3",
		"merge -store s d",
		"merge -min-coverage 0.8 d",
		"score s",
		"vantage -addr :0 -key k",
		"crawl -checkpoint d -federate 2 -transport http://a,http://b -vantage-key k",
		"crawl -checkpoint d -federate 2 -transport http://a,http://b -vantage-key ka,kb",
		"serve -addr :0",
		"serve -addr :0 -store s",
		"serve -store r", // the address has a default
	} {
		if _, err := parse(strings.Fields(ok), io.Discard); err != nil {
			t.Errorf("webdep %s rejected: %v", ok, err)
		}
	}
}

// TestDocumentedCommandLinesParse holds the docs to the CLI: every webdep
// command line README.md and the verify skill show must parse. Nothing is
// built or crawled.
func TestDocumentedCommandLinesParse(t *testing.T) {
	invocation := regexp.MustCompile(`^\$? *(?:go run \./cmd/webdep|/tmp/webdep)((?: .*)?)$`)
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md", "main.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// main.go documents itself as `//	webdep <command> ...`.
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		joined = regexp.MustCompile(`(?m)^//\twebdep `).ReplaceAllString(joined, "/tmp/webdep ")
		found := 0
		for _, line := range strings.Split(joined, "\n") {
			m := invocation.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			found++
			cmdline, _, _ := strings.Cut(m[1], " #")
			cmdline = strings.TrimSuffix(strings.TrimSpace(cmdline), " &")
			if _, err := parse(strings.Fields(cmdline), io.Discard); err != nil {
				t.Errorf("%s shows `webdep %s`, which does not parse: %v", doc, cmdline, err)
			}
		}
		if found == 0 {
			t.Errorf("%s: no webdep command lines found; has the way they are written changed?", doc)
		}
	}
}

// TestRunFederatedAndMerge drives the federation CLI end to end: a
// crawl -federate leaves per-worker shard journals under -checkpoint and
// exports a corpus; a separate merge over the same directory must
// reassemble a byte-identical export from the journals alone.
func TestRunFederatedAndMerge(t *testing.T) {
	fedOut, mergeOut := t.TempDir(), t.TempDir()
	ckpt := t.TempDir()
	mustRun(t, "crawl", "-seed", "5", "-sites", "12", "-out", fedOut, "-countries", "CZ,TH",
		"-workers", "4", "-federate", "2", "-checkpoint", ckpt)
	journals, err := filepath.Glob(filepath.Join(ckpt, "*.journal"))
	if err != nil || len(journals) < 2 {
		t.Fatalf("expected >=2 shard journals under %s, got %v (%v)", ckpt, journals, err)
	}

	mustRun(t, "merge", "-out", mergeOut, "-workers", "4", ckpt)
	sameCSVs(t, "merge export differs from the crawl -federate export", fedOut, mergeOut, "CZ", "TH")
}

// TestRunMergeFlagsDegraded: merge accepts lost fields, so it must apply
// the coverage threshold the crawl would have — an incomplete campaign's
// journals yield scores marked DEGRADED, a store whose manifest says so,
// and neither once -min-coverage admits the loss.
func TestRunMergeFlagsDegraded(t *testing.T) {
	ckpt := t.TempDir()
	mustRun(t, "crawl", "-seed", "5", "-sites", "12", "-out", t.TempDir(), "-countries", "CZ,TH",
		"-workers", "4", "-checkpoint", ckpt)

	// Lose the CA probe on two of CZ's twelve sites, as a crawl whose retry
	// budget ran out would have journaled them.
	ccs := []string{"CZ", "TH"}
	journal := filepath.Join(ckpt, "2023-05.journal")
	var cz []checkpoint.Entry
	if _, err := checkpoint.StreamSites(journal, nil, func(cc string, site dataset.Website, o dataset.SiteOutcome) error {
		if cc == "CZ" {
			cz = append(cz, checkpoint.Entry{Site: site, Outcome: o})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	j, err := checkpoint.Resume(journal, "2023-05", ccs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(cz, func(a, b int) bool { return cz[a].Site.Rank < cz[b].Site.Rank })
	for _, e := range cz[:2] {
		e.Outcome.CA = dataset.StatusLost
		j.Append("CZ", e.Site, e.Outcome)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(t.TempDir(), "store")
	stdout, _ := mustRun(t, "merge", "-out", t.TempDir(), "-store", store, ckpt)
	if !strings.Contains(stdout, "DEGRADED (coverage 83.3%)") {
		t.Errorf("merge summary does not flag CZ degraded:\n%s", stdout)
	}
	st, err := corpusstore.Open(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cov := st.Coverage(); !cov["CZ"].Degraded || cov["TH"].Degraded {
		t.Errorf("stored coverage: CZ degraded %v, TH degraded %v; want true, false", cov["CZ"].Degraded, cov["TH"].Degraded)
	}

	stdout, _ = mustRun(t, "merge", "-out", t.TempDir(), "-min-coverage", "0.8", ckpt)
	if strings.Contains(stdout, "DEGRADED") {
		t.Errorf("merge -min-coverage 0.8 still flags 83.3%% coverage:\n%s", stdout)
	}
}

// TestRunRemoteFederation drives the remote transport end to end through
// the CLI surface: two vantage workers (in-process here, separate machines
// in production — the shared seed is the contract) answer a
// crawl -transport coordinator over real HTTP, and the resulting export
// must be byte-identical to the same crawl federated in-process.
func TestRunRemoteFederation(t *testing.T) {
	world := []string{"-seed", "5", "-sites", "12", "-countries", "CZ,TH", "-workers", "4"}
	with := func(cmd string, extra ...string) []string {
		return append(append([]string{cmd}, world...), extra...)
	}

	localOut := t.TempDir()
	mustRun(t, with("crawl", "-out", localOut, "-federate", "2", "-checkpoint", t.TempDir())...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	urls := make([]string, 2)
	done := make([]<-chan error, 2)
	for i := range urls {
		var addr string
		addr, done[i] = start(t, ctx, with("vantage", "-addr", "127.0.0.1:0", "-key", "shared-key")...)
		urls[i] = "http://" + addr
	}

	remoteOut := t.TempDir()
	mustRun(t, with("crawl", "-out", remoteOut, "-federate", "2", "-checkpoint", t.TempDir(),
		"-transport", strings.Join(urls, ","), "-vantage-key", "shared-key")...)
	cancel()
	for _, d := range done {
		if err := <-d; err != nil {
			t.Errorf("vantage worker: %v", err)
		}
	}
	sameCSVs(t, "remote-federated export differs from the in-process export", localOut, remoteOut, "CZ", "TH")
}

// TestRunServeDaemon drives serve end to end through run(): a store
// generation is persisted, the daemon serves the generation root (on the
// default address's stand-in, :0), a second generation lands, POST /reload
// swaps to it, and the daemon exits cleanly when its context ends.
func TestRunServeDaemon(t *testing.T) {
	root := t.TempDir()
	generation := func(seed, name string) {
		t.Helper()
		mustRun(t, "export", "-seed", seed, "-sites", "30", "-out", t.TempDir(), "-countries", "CZ,TH",
			"-workers", "4", "-store", filepath.Join(root, name), "-summary=false")
	}
	generation("5", "gen-0001")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := start(t, ctx, "serve", "-addr", "127.0.0.1:0", "-store", root, "-workers", "4")

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := get("/api/scores?layer=hosting")
	if status != http.StatusOK || !strings.Contains(string(body), `"CZ"`) {
		t.Fatalf("scores: %d %s", status, body)
	}
	if status, body := get("/api/epoch"); status != http.StatusOK || !strings.Contains(string(body), "gen-0001") {
		t.Fatalf("epoch: %d %s", status, body)
	}

	// A new generation (different world) lands; /reload must swap to it.
	generation("6", "gen-0002")
	resp, err := http.Post("http://"+addr+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", resp.StatusCode)
	}
	if status, body := get("/api/epoch"); status != http.StatusOK || !strings.Contains(string(body), "gen-0002") {
		t.Fatalf("post-swap epoch: %d %s", status, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve run: %v", err)
	}
}

// TestRunCheckpointResume drives the CLI path end to end: a checkpointed
// crawl leaves a journal, a second fresh run refuses to clobber it, a
// -resume run replays it, and the resumed export matches the original. So
// does a -resume after the context was cancelled mid-crawl — what ^C does —
// which must fail, keep its journal and still print the -stats table.
func TestRunCheckpointResume(t *testing.T) {
	out1, out2 := t.TempDir(), t.TempDir()
	ckpt := t.TempDir()
	crawl := func(out, ckpt string, extra ...string) []string {
		return append([]string{"crawl", "-seed", "5", "-sites", "20", "-countries", "CZ,TH",
			"-out", out, "-checkpoint", ckpt}, extra...)
	}

	mustRun(t, crawl(out1, ckpt, "-workers", "8")...)
	if _, err := os.Stat(filepath.Join(ckpt, "2023-05.journal")); err != nil {
		t.Fatalf("journal missing after checkpointed run: %v", err)
	}
	if _, _, err := webdep(crawl(t.TempDir(), ckpt, "-workers", "8")...); err == nil {
		t.Fatal("second run truncated an existing journal without -resume")
	}
	mustRun(t, crawl(out2, ckpt, "-workers", "8", "-resume")...)
	sameCSVs(t, "resumed export differs from the original", out1, out2, "CZ", "TH")

	// One worker crawls CZ then TH in order; cancelling on CZ's progress
	// line stops the crawl with TH unprobed.
	out3, ckpt3 := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := &lines{fn: func(line string) {
		if strings.HasPrefix(line, "crawled CZ") {
			cancel()
		}
	}}
	if err := run(ctx, crawl(out3, ckpt3, "-workers", "1", "-stats"), io.Discard, errs); err == nil {
		t.Fatal("a crawl cancelled mid-way reported success")
	}
	if !strings.Contains(errs.String(), "checkpoint.records_written") {
		t.Errorf("cancelled crawl did not print its -stats table:\n%s", errs)
	}
	if _, err := os.Stat(filepath.Join(out3, "2023-05")); err == nil {
		t.Error("cancelled crawl exported a partial corpus")
	}
	_, stderr := mustRun(t, crawl(out3, ckpt3, "-workers", "8", "-resume")...)
	if !strings.Contains(stderr, "20 sites journaled, re-probing the rest") {
		t.Errorf("resume after cancel did not replay CZ's 20 sites:\n%s", stderr)
	}
	sameCSVs(t, "export resumed after a cancel differs from the uninterrupted one", out1, out3, "CZ", "TH")
}
