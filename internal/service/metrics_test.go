package service

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plancache"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics_golden.{json,prom} from this build's /metrics")

// familiesSinceGolden are the Prometheus families this build exports
// beyond the recorded exposition. Each must be present and unrecorded —
// a re-record writes every family, after which its entry here is stale
// and must go; every other family must match its recorded block line
// for line.
var familiesSinceGolden = []string{}

// goldenMaskedJSON are the /metrics JSON keys whose values depend on
// timing (latencies, derivation time) or on process-wide state other
// tests in the package also move (the fabric handle table, and the phase
// certificates kept with its shared handles).
var goldenMaskedJSON = regexp.MustCompile(`"(total_us|mean_us|max_us|sum_us|p50_us|p90_us|p99_us|certificates|handles|resolve_hits_total|resolve_misses_total|resolve_evictions_total|derivations_total|derive_us_total)":[^,}]+`)

// goldenMaskedProm are the families whose values are masked for the same
// reasons; histogram _sum values and finite buckets are masked too.
var goldenMaskedProm = regexp.MustCompile(`^(pland_topology_[a-z_]+|pland_replay_certificates_total|[a-z_]+_sum)(\{[^}]*\})? `)

// TestMetricsGolden drives one clustered in-process server through a
// scripted sequence — a plan miss and hit, a /v1/cost whose phases the
// certificate declines, a fault report forwarded to the peer, a plan on
// the faulted fabric, a 400 — and compares both /metrics forms with the
// recorded documents: the JSON byte for byte, the exposition family by
// family, with timing-derived and process-wide values masked. Requests run
// through ServeHTTP, so every request's accounting has finished before the
// next one starts. Re-record with -update-metrics-golden.
func TestMetricsGolden(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{}`)
	}))
	defer peer.Close()
	clu, err := cluster.New(cluster.Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: plancache.New(plancache.Config{}), Cluster: clu})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	do := func(method, target, body string, want int) string {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
		if w.Code != want {
			t.Fatalf("%s %s = %d (%s), want %d", method, target, w.Code, w.Body, want)
		}
		return strings.ReplaceAll(w.Body.String(), peer.URL, "PEER")
	}
	do(http.MethodGet, "/v1/plan?d=5&m=40", "", http.StatusOK) // miss: builds the line
	do(http.MethodGet, "/v1/plan?d=5&m=80", "", http.StatusOK) // hit
	do(http.MethodPost, "/v1/cost", `{"topology":"torus-4x4","m":32,"partition":[1,1]}`, http.StatusOK)
	do(http.MethodPost, "/v1/faults", `{"topology":"hypercube-3","action":"slow","links":[[0,1]],"factor":2}`, http.StatusOK)
	do(http.MethodGet, "/v1/plan?d=3&m=40", "", http.StatusOK) // planned on the slow overlay
	do(http.MethodGet, "/v1/plan?machine=cray&d=5&m=40", "", http.StatusBadRequest)
	gotJSON := goldenMaskedJSON.ReplaceAllString(do(http.MethodGet, "/metrics", "", http.StatusOK), `"$1":"*"`)
	gotProm := promFamilies(t, do(http.MethodGet, "/metrics?format=prometheus", "", http.StatusOK))

	jsonPath := filepath.Join("testdata", "metrics_golden.json")
	promPath := filepath.Join("testdata", "metrics_golden.prom")
	if *updateMetricsGolden {
		var prom strings.Builder
		for _, name := range sortedKeys(gotProm) {
			prom.WriteString(gotProm[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, []byte(gotJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(promPath, []byte(prom.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != string(wantJSON) {
		t.Errorf("/metrics JSON differs from %s:\n got %s\nwant %s", jsonPath, gotJSON, wantJSON)
	}
	rawProm, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	wantProm := promFamilies(t, string(rawProm))
	for _, name := range familiesSinceGolden {
		if _, recorded := wantProm[name]; recorded {
			t.Errorf("family %s is listed in familiesSinceGolden but already recorded in %s: drop it from the list", name, promPath)
			continue
		}
		if _, ok := gotProm[name]; !ok {
			t.Errorf("exposition lacks the new family %s", name)
		}
		delete(gotProm, name)
	}
	for _, name := range sortedKeys(wantProm) {
		if gotProm[name] != wantProm[name] {
			t.Errorf("family %s differs from %s:\n got %q\nwant %q", name, promPath, gotProm[name], wantProm[name])
		}
	}
	for _, name := range sortedKeys(gotProm) {
		if _, ok := wantProm[name]; !ok {
			t.Errorf("unrecorded family %s:\n%s", name, gotProm[name])
		}
	}
}

// TestEveryMetricDeclared walks MetricsResponse's type the way
// obs.WriteProm walks its values and fails on a number, bool, map or
// histogram that has neither a prom family nor prom:"-", on a family
// declared with two types or two helps, and on a declaration with an
// unknown type or no help.
func TestEveryMetricDeclared(t *testing.T) {
	histType := reflect.TypeOf(obs.HistSnapshot{})
	type decl struct{ typ, help, at string }
	families := map[string]decl{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := path + "." + f.Name
			tag, tagged := f.Tag.Lookup("prom")
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch {
			case tag == "-":
			case tagged && !strings.Contains(tag, ","):
				if k := ft.Kind(); k != reflect.Map && k != reflect.Slice || ft.Elem().Kind() != reflect.Struct {
					t.Errorf("%s: label tag %q on a %s, want a map or slice of structs", at, tag, ft)
					continue
				}
				walk(ft.Elem(), at+"[]")
			case tagged:
				parts := strings.Split(tag, ",")
				d := decl{typ: parts[1], help: f.Tag.Get("help"), at: at}
				if d.typ != "counter" && d.typ != "gauge" && d.typ != "histogram" || d.help == "" {
					t.Errorf("%s: family %s declared as %q with help %q", at, parts[0], d.typ, d.help)
				}
				if prev, ok := families[parts[0]]; ok && (prev.typ != d.typ || prev.help != d.help) {
					t.Errorf("family %s: %s declares %s %q, %s declares %s %q",
						parts[0], prev.at, prev.typ, prev.help, at, d.typ, d.help)
				}
				families[parts[0]] = d
			case ft.Kind() == reflect.Struct && ft != histType:
				walk(ft, at)
			case ft.Kind() != reflect.String:
				t.Errorf("%s (%s) has neither a prom family nor prom:\"-\"", at, f.Type)
			}
		}
	}
	walk(reflect.TypeOf(MetricsResponse{}), "MetricsResponse")
	if len(families) == 0 {
		t.Fatal("no family declared")
	}
}

// promFamilies splits an exposition into its families' blocks, keyed by
// family name, with masked values replaced by "*" and finite histogram
// buckets (whose set depends on latency) dropped. A family whose samples
// are not contiguous under one header fails the test.
func promFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	var cur string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			cur, _, _ = strings.Cut(name, " ")
			if _, dup := blocks[cur]; dup {
				t.Fatalf("family %s appears in two blocks", cur)
			}
		} else if !strings.HasPrefix(line, "# TYPE "+cur+" ") {
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			if base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count"); name != cur && base != cur {
				t.Fatalf("sample %q outside its family's block (in %s)", line, cur)
			}
			if strings.HasSuffix(name, "_bucket") && !strings.Contains(line, `le="+Inf"`) {
				continue
			}
			if m := goldenMaskedProm.FindString(line); m != "" {
				line = m + "*"
			}
		}
		blocks[cur] += line + "\n"
	}
	return blocks
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
