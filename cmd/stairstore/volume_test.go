package main

import (
	"math"
	"math/bits"
	"os"
	"testing"
)

// FuzzLoadMeta feeds arbitrary bytes through loadMeta and the geometry
// checks a mount makes before it touches a device file. Neither may
// panic, and a descriptor they accept must have device images whose
// sector count and byte size fit their types.
func FuzzLoadMeta(f *testing.F) {
	for _, seed := range []string{
		`{"n":8,"r":4,"m":2,"e":[1,1,2],"sector_size":4096,"stripes":64,"integrity":true,"integrity_epoch":1,"stats":{}}`,
		`{"n":6,"r":4,"m":1,"e":[1],"sector_size":512,"stripes":4,"repair_workers":2,"flush_workers":4,"lock_shards":8}`,
		`{"n":6,"r":4,"m":2,"e":[],"sector_size":512,"stripes":9223372036854775807}`,
		`{"n":8,"r":4,"m":2,"e":[1,1,2],"sector_size":9223372036854775807,"stripes":2,"integrity":true}`,
		`{"n":4,"r":2,"m":4,"e":[3],"sector_size":-1,"stripes":0}`,
		`{"n":"8"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(metaPath(dir), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, err := loadMeta(dir)
		if err != nil {
			return
		}
		_, devSectors, err := meta.geometry()
		if err != nil {
			return
		}
		if hi, lo := bits.Mul64(uint64(meta.Stripes), uint64(meta.R)); hi != 0 || lo > math.MaxInt {
			t.Fatalf("accepted stripes=%d × r=%d, which overflows", meta.Stripes, meta.R)
		}
		if devSectors < meta.Stripes*meta.R {
			t.Fatalf("device images of %d sectors hold less than the %d data sectors", devSectors, meta.Stripes*meta.R)
		}
		if hi, lo := bits.Mul64(uint64(devSectors), uint64(meta.SectorSize)); hi != 0 || lo > math.MaxInt64 {
			t.Fatalf("accepted images of %d sectors of %d bytes, which overflow", devSectors, meta.SectorSize)
		}
	})
}
