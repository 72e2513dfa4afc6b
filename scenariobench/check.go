package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// Output correctness. A cell's result is summarised by a fingerprint of
// its whole value and its horizon flag; a workload's rendered tables by
// a SHA-256 digest. At the default seed both are compared with the
// golden files committed beside this code; at any other seed every pass
// is compared with the first.

// goldenSeed is the seed the golden files were recorded at: zero keeps
// every scenario's own paper seed.
const goldenSeed = 0

//go:embed golden/*.json
var goldenFS embed.FS

// cellCheck is the correctness summary of one cell.
type cellCheck struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fp"`
	TimedOut    bool   `json:"timed_out"`
}

// golden is one workload's recorded output at goldenSeed.
type golden struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Tables   string      `json:"tables_sha256"`
	Cells    []cellCheck `json:"cells"`
}

// loadGolden returns the committed golden file of workload name.
func loadGolden(name string) (*golden, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no golden file for workload %s", name)
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", name, err)
	}
	return &g, nil
}

// writeGolden records g under dir as the workload's golden file.
func writeGolden(dir string, g *golden) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, g.Workload+".json"), append(b, '\n'), 0o644)
}

// tablesDigest is the hex SHA-256 of rendered tables.
func tablesDigest(tables string) string {
	sum := sha256.Sum256([]byte(tables))
	return hex.EncodeToString(sum[:])
}

// fingerprint hashes every field of a cell value, following pointers
// and interfaces, so two values share a fingerprint only if they are
// deeply equal (up to hash collisions). Map entries are combined in an
// order-independent way; functions and channels contribute only whether
// they are nil.
func fingerprint(v any) string { return hashValues(reflect.ValueOf(v)) }

// hashValues returns the hex hash of vs in order.
func hashValues(vs ...reflect.Value) string {
	h := &hasher{h: fnv.New64a(), seen: map[uintptr]bool{}}
	for _, v := range vs {
		h.value(v)
	}
	return fmt.Sprintf("%016x", h.h.Sum64())
}

type hasher struct {
	h    hash.Hash64
	seen map[uintptr]bool
}

func (h *hasher) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.h.Write(b[:])
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) value(v reflect.Value) {
	if !v.IsValid() {
		h.str("<invalid>")
		return
	}
	h.u64(uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.u64(1)
		} else {
			h.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		h.u64(math.Float64bits(real(c)))
		h.u64(math.Float64bits(imag(c)))
	case reflect.String:
		h.str(v.String())
	case reflect.Array, reflect.Slice:
		h.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Struct:
		h.str(v.Type().String())
		for i := 0; i < v.NumField(); i++ {
			h.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			h.u64(0)
			return
		}
		if h.seen[v.Pointer()] {
			h.u64(1)
			return
		}
		h.seen[v.Pointer()] = true
		h.u64(2)
		h.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			h.u64(0)
			return
		}
		h.str(v.Elem().Type().String())
		h.value(v.Elem())
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			entries = append(entries, hashValues(it.Key(), it.Value()))
		}
		sort.Strings(entries)
		h.u64(uint64(len(entries)))
		for _, e := range entries {
			h.str(e)
		}
	default: // func, chan, unsafe pointer
		if v.IsNil() {
			h.u64(0)
		} else {
			h.u64(1)
		}
	}
}
