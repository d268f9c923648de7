package optimize

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/topology"
)

// The paper's §6 observes that the partition enumeration "needs to be
// done only once and the optimal combination stored for repeated future
// use". StoredTable is that artifact: a serializable hull-of-optimality
// table for one (machine, dimension) pair.

// storedSegment is the JSON form of one hull segment.
type storedSegment struct {
	Partition []int `json:"partition"`
	MinBlock  int   `json:"min_block"`
	MaxBlock  int   `json:"max_block"`
}

// storedTable is the JSON envelope.
type storedTable struct {
	Version  int             `json:"version"`
	D        int             `json:"d"`
	Machine  machineParams   `json:"machine"`
	Segments []storedSegment `json:"segments"`
}

// machineParams records the parameter set the table was computed for, so
// a load against different parameters can be rejected.
type machineParams struct {
	Lambda           float64 `json:"lambda"`
	Tau              float64 `json:"tau"`
	Delta            float64 `json:"delta"`
	Rho              float64 `json:"rho"`
	LambdaZero       float64 `json:"lambda_zero"`
	GlobalSyncPerDim float64 `json:"global_sync_per_dim"`
	Exchange         int     `json:"exchange_mode"`
	GlobalSyncPhase  bool    `json:"global_sync_per_phase"`
}

func paramsKey(p model.Params) machineParams {
	return machineParams{
		Lambda:           p.Lambda,
		Tau:              p.Tau,
		Delta:            p.Delta,
		Rho:              p.Rho,
		LambdaZero:       p.LambdaZero,
		GlobalSyncPerDim: p.GlobalSyncPerDim,
		Exchange:         int(p.Exchange),
		GlobalSyncPhase:  p.GlobalSyncPerPhase,
	}
}

// SaveTable writes the table as JSON, tagged with the machine parameters
// it was computed against.
func SaveTable(w io.Writer, t Table, prm model.Params) error {
	st := storedTable{Version: 1, D: t.D, Machine: paramsKey(prm)}
	for _, seg := range t.Segments {
		st.Segments = append(st.Segments, storedSegment{
			Partition: append([]int(nil), seg.Part...),
			MinBlock:  seg.MinBlock,
			MaxBlock:  seg.MaxBlock,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// LoadTable reads a table saved by SaveTable and validates it against the
// given machine parameters and dimension. A mismatch is an error: a plan
// table computed for one machine is meaningless on another.
func LoadTable(r io.Reader, prm model.Params) (Table, error) {
	var st storedTable
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return Table{}, fmt.Errorf("optimize: decoding table: %w", err)
	}
	if st.Version != 1 {
		return Table{}, fmt.Errorf("optimize: unsupported table version %d", st.Version)
	}
	if st.Machine != paramsKey(prm) {
		return Table{}, fmt.Errorf("optimize: table computed for different machine parameters")
	}
	// SaveTable stores only d: a stored table is always a d-cube's.
	cube, err := topology.New(st.D)
	if err != nil {
		return Table{}, fmt.Errorf("optimize: stored table: %w", err)
	}
	t := Table{Topo: cube.Name(), D: st.D}
	for _, seg := range st.Segments {
		t.Segments = append(t.Segments, model.HullSegment{
			Part:     partition.Partition(append([]int(nil), seg.Partition...)),
			MinBlock: seg.MinBlock,
			MaxBlock: seg.MaxBlock,
		})
	}
	if err := t.Validate(); err != nil {
		return Table{}, fmt.Errorf("optimize: stored table: %w", err)
	}
	return t, nil
}

// Validate checks a table read from outside the optimizer (a stored
// table, a snapshot or peer line): every grouping splits the D dimensions
// into positive parts, and the block ranges are non-empty, non-negative
// and strictly ascending, so LookupSegment answers each covered block
// size from the one segment holding it.
func (t Table) Validate() error {
	prevMax := -1
	for _, seg := range t.Segments {
		valid := seg.Part.Sum() == t.D && (t.D == 0 || len(seg.Part) > 0)
		for _, di := range seg.Part {
			valid = valid && di > 0
		}
		if !valid {
			return fmt.Errorf("grouping %v invalid for %s", seg.Part, t.Topo)
		}
		if seg.MinBlock > seg.MaxBlock || seg.MinBlock <= prevMax {
			return fmt.Errorf("segment range [%d,%d] out of order", seg.MinBlock, seg.MaxBlock)
		}
		prevMax = seg.MaxBlock
	}
	return nil
}

// SaveTableFile writes the table to a file path.
func SaveTableFile(path string, t Table, prm model.Params) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveTable(f, t, prm); err != nil {
		return err
	}
	return f.Close()
}

// LoadTableFile reads a table from a file path.
func LoadTableFile(path string, prm model.Params) (Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return Table{}, err
	}
	defer f.Close()
	return LoadTable(f, prm)
}
