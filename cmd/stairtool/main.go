// Command stairtool shards a file across simulated devices with STAIR
// protection, injects corruption, and repairs it — a miniature end-to-end
// deployment of the library.
//
//	stairtool encode  -in data.bin -dir shards -n 8 -r 4 -m 2 -e 1,1,2
//	stairtool corrupt -dir shards -device 3
//	stairtool corrupt -dir shards -device 5 -sector 17
//	stairtool corrupt -dir shards -device 2 -burst 40:4
//	stairtool status  -dir shards
//	stairtool repair  -dir shards
//	stairtool decode  -dir shards -out restored.bin
//	stairtool verify  -dir shards
//	stairtool fleet   -n 6 -spares 1 -base-port 9000 -out fleet.json
//
// Layout: dir/chunk_<d>.bin holds device d's sectors back to back;
// dir/manifest.json records geometry, file length, a SHA-256 of the
// original file, and a CRC-32 per sector. Corruption is detected by CRC
// mismatch, so repair needs no out-of-band loss report.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"stair"
	"stair/internal/core"
	"stair/internal/gf"
)

type manifest struct {
	N          int      `json:"n"`
	R          int      `json:"r"`
	M          int      `json:"m"`
	E          []int    `json:"e"`
	SectorSize int      `json:"sector_size"`
	Stripes    int      `json:"stripes"`
	FileLength int      `json:"file_length"`
	FileSHA256 string   `json:"file_sha256"`
	CRCs       []uint32 `json:"sector_crcs"` // device-major: dev*stripes*r + sector
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// A typo'd STAIR_GF_KERNEL should fail before any shard is touched.
	if err := gf.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "stairtool:", err)
		os.Exit(1)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "corrupt":
		err = cmdCorrupt(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stairtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: stairtool {encode|corrupt|repair|decode|verify|status|fleet} [flags]")
	os.Exit(2)
}

// cmdFleet generates a cluster fleet file for staird: n active device
// servers plus the requested spares, on consecutive ports of one host.
//
//	stairtool fleet -n 6 -spares 1 -host 127.0.0.1 -base-port 9000 -out fleet.json
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	n := fs.Int("n", 6, "active device servers")
	spares := fs.Int("spares", 1, "spare device servers")
	host := fs.String("host", "127.0.0.1", "device server host")
	basePort := fs.Int("base-port", 9000, "first device server port")
	out := fs.String("out", "", "output path (default: stdout)")
	fs.Parse(args)
	if *n < 1 || *spares < 0 {
		return fmt.Errorf("fleet: need n ≥ 1 actives and spares ≥ 0 (got %d, %d)", *n, *spares)
	}
	type server struct {
		Name  string `json:"name"`
		URL   string `json:"url"`
		Spare bool   `json:"spare,omitempty"`
	}
	var fleet struct {
		Servers []server `json:"servers"`
	}
	for i := 0; i < *n+*spares; i++ {
		fleet.Servers = append(fleet.Servers, server{
			Name:  fmt.Sprintf("dev%d", i),
			URL:   fmt.Sprintf("http://%s:%d", *host, *basePort+i),
			Spare: i >= *n,
		})
	}
	enc, err := json.MarshalIndent(fleet, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

func codeOf(m *manifest) (*stair.Code, error) {
	return stair.New(stair.Config{N: m.N, R: m.R, M: m.M, E: m.E})
}

func loadManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parsing manifest: %w", err)
	}
	return &m, nil
}

func saveManifest(dir string, m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
}

func chunkPath(dir string, dev int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk_%d.bin", dev))
}

// loadChunks reads every device file; missing files come back as zeroed
// buffers (a failed device).
func loadChunks(dir string, m *manifest) ([][]byte, []bool, error) {
	chunkBytes := m.Stripes * m.R * m.SectorSize
	chunks := make([][]byte, m.N)
	missing := make([]bool, m.N)
	for dev := 0; dev < m.N; dev++ {
		raw, err := os.ReadFile(chunkPath(dir, dev))
		switch {
		case errors.Is(err, os.ErrNotExist):
			raw = make([]byte, chunkBytes)
			missing[dev] = true
		case err != nil:
			return nil, nil, err
		case len(raw) != chunkBytes:
			return nil, nil, fmt.Errorf("chunk %d has %d bytes, want %d", dev, len(raw), chunkBytes)
		}
		chunks[dev] = raw
	}
	return chunks, missing, nil
}

func sectorAt(m *manifest, chunks [][]byte, dev, sector int) []byte {
	off := sector * m.SectorSize
	return chunks[dev][off : off+m.SectorSize]
}

func crcIndex(m *manifest, dev, sector int) int { return dev*m.Stripes*m.R + sector }

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dir := fs.String("dir", "", "output shard directory")
	n := fs.Int("n", 8, "devices per stripe")
	r := fs.Int("r", 4, "sectors per chunk")
	m := fs.Int("m", 2, "device-failure tolerance")
	eStr := fs.String("e", "1,1,2", "sector-failure coverage vector, e.g. 1,1,2")
	sectorSize := fs.Int("sector", 4096, "sector size in bytes")
	fs.Parse(args)
	if *in == "" || *dir == "" {
		return errors.New("encode: -in and -dir are required")
	}
	e, err := core.ParseE(*eStr)
	if err != nil {
		return err
	}
	code, err := stair.New(stair.Config{N: *n, R: *r, M: *m, E: e})
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	dataPerStripe := code.NumDataCells() * *sectorSize
	stripes := (len(data) + dataPerStripe - 1) / dataPerStripe
	if stripes == 0 {
		stripes = 1
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	man := &manifest{
		N: *n, R: *r, M: *m, E: code.E(), SectorSize: *sectorSize,
		Stripes: stripes, FileLength: len(data),
	}
	sum := sha256.Sum256(data)
	man.FileSHA256 = hex.EncodeToString(sum[:])
	chunks := make([][]byte, *n)
	for dev := range chunks {
		chunks[dev] = make([]byte, stripes**r**sectorSize)
	}
	offset := 0
	for stripe := 0; stripe < stripes; stripe++ {
		st, err := code.NewStripe(*sectorSize)
		if err != nil {
			return err
		}
		for _, cell := range code.DataCells() {
			if offset < len(data) {
				offset += copy(st.Sector(cell.Col, cell.Row), data[offset:])
			}
		}
		if err := code.Encode(st); err != nil {
			return err
		}
		for col := 0; col < *n; col++ {
			for row := 0; row < *r; row++ {
				copy(sectorAt(man, chunks, col, stripe**r+row), st.Sector(col, row))
			}
		}
	}
	man.CRCs = make([]uint32, *n*stripes**r)
	for dev := 0; dev < *n; dev++ {
		for sec := 0; sec < stripes**r; sec++ {
			man.CRCs[crcIndex(man, dev, sec)] = crc32.ChecksumIEEE(sectorAt(man, chunks, dev, sec))
		}
	}
	for dev := 0; dev < *n; dev++ {
		if err := os.WriteFile(chunkPath(*dir, dev), chunks[dev], 0o644); err != nil {
			return err
		}
	}
	if err := saveManifest(*dir, man); err != nil {
		return err
	}
	fmt.Printf("encoded %d bytes into %d stripes across %d devices (%s)\n",
		len(data), stripes, *n, *dir)
	fmt.Printf("config: %v, storage efficiency %.1f%%\n",
		code.Config(), 100*code.StorageEfficiency())
	return nil
}

func cmdCorrupt(args []string) error {
	fs := flag.NewFlagSet("corrupt", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	device := fs.Int("device", -1, "device to corrupt")
	sector := fs.Int("sector", -1, "single sector index on the device (default: whole device)")
	burst := fs.String("burst", "", "start:length run of sectors")
	fs.Parse(args)
	if *dir == "" || *device < 0 {
		return errors.New("corrupt: -dir and -device are required")
	}
	m, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	if *device >= m.N {
		return fmt.Errorf("device %d out of range [0,%d)", *device, m.N)
	}
	switch {
	case *burst != "":
		parts := strings.SplitN(*burst, ":", 2)
		if len(parts) != 2 {
			return errors.New("corrupt: -burst wants start:length")
		}
		start, err1 := strconv.Atoi(parts[0])
		length, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return errors.New("corrupt: bad -burst")
		}
		return corruptSectors(*dir, m, *device, start, length)
	case *sector >= 0:
		return corruptSectors(*dir, m, *device, *sector, 1)
	default:
		// Whole device: remove the chunk file.
		if err := os.Remove(chunkPath(*dir, *device)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		fmt.Printf("device %d destroyed\n", *device)
		return nil
	}
}

func corruptSectors(dir string, m *manifest, dev, start, length int) error {
	path := chunkPath(dir, dev)
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("device %d is already destroyed", dev)
	}
	total := m.Stripes * m.R
	for i := 0; i < length; i++ {
		s := start + i
		if s >= total {
			break
		}
		off := s * m.SectorSize
		for j := 0; j < m.SectorSize; j++ {
			raw[off+j] ^= 0xFF // flip everything: CRC will catch it
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("corrupted %d sector(s) starting at %d on device %d\n", length, start, dev)
	return nil
}

// detectLost returns per-stripe lost cells from CRC mismatches and
// missing devices.
func detectLost(m *manifest, chunks [][]byte, missing []bool) [][]stair.Cell {
	lost := make([][]stair.Cell, m.Stripes)
	for dev := 0; dev < m.N; dev++ {
		for sec := 0; sec < m.Stripes*m.R; sec++ {
			bad := missing[dev] ||
				crc32.ChecksumIEEE(sectorAt(m, chunks, dev, sec)) != m.CRCs[crcIndex(m, dev, sec)]
			if bad {
				stripe := sec / m.R
				lost[stripe] = append(lost[stripe], stair.Cell{Col: dev, Row: sec % m.R})
			}
		}
	}
	return lost
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	fs.Parse(args)
	m, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	chunks, missing, err := loadChunks(*dir, m)
	if err != nil {
		return err
	}
	lost := detectLost(m, chunks, missing)
	totalBad := 0
	for stripe, cells := range lost {
		if len(cells) > 0 {
			fmt.Printf("stripe %d: %d lost sectors %v\n", stripe, len(cells), cells)
			totalBad += len(cells)
		}
	}
	for dev, gone := range missing {
		if gone {
			fmt.Printf("device %d: destroyed\n", dev)
		}
	}
	if totalBad == 0 {
		fmt.Println("all sectors healthy")
	}
	return nil
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	fs.Parse(args)
	m, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	code, err := codeOf(m)
	if err != nil {
		return err
	}
	chunks, missing, err := loadChunks(*dir, m)
	if err != nil {
		return err
	}
	lost := detectLost(m, chunks, missing)
	repaired := 0
	for stripe := 0; stripe < m.Stripes; stripe++ {
		if len(lost[stripe]) == 0 {
			continue
		}
		st, err := code.NewStripe(m.SectorSize)
		if err != nil {
			return err
		}
		for col := 0; col < m.N; col++ {
			for row := 0; row < m.R; row++ {
				copy(st.Sector(col, row), sectorAt(m, chunks, col, stripe*m.R+row))
			}
		}
		if err := code.Repair(st, lost[stripe]); err != nil {
			return fmt.Errorf("stripe %d: %w", stripe, err)
		}
		for _, cell := range lost[stripe] {
			copy(sectorAt(m, chunks, cell.Col, stripe*m.R+cell.Row), st.Sector(cell.Col, cell.Row))
			repaired++
		}
	}
	for dev := 0; dev < m.N; dev++ {
		if err := os.WriteFile(chunkPath(*dir, dev), chunks[dev], 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("repaired %d sectors\n", repaired)
	return nil
}

func assemble(m *manifest, chunks [][]byte) ([]byte, error) {
	code, err := codeOf(m)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, m.FileLength)
	for stripe := 0; stripe < m.Stripes && len(out) < m.FileLength; stripe++ {
		for _, cell := range code.DataCells() {
			sec := sectorAt(m, chunks, cell.Col, stripe*m.R+cell.Row)
			remain := m.FileLength - len(out)
			if remain <= 0 {
				break
			}
			if remain < len(sec) {
				out = append(out, sec[:remain]...)
			} else {
				out = append(out, sec...)
			}
		}
	}
	return out, nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	out := fs.String("out", "", "output file")
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return errors.New("decode: -dir and -out are required")
	}
	m, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	chunks, _, err := loadChunks(*dir, m)
	if err != nil {
		return err
	}
	data, err := assemble(m, chunks)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != m.FileSHA256 {
		return errors.New("decode: reassembled data fails SHA-256 check; run repair first")
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes to %s (SHA-256 verified)\n", len(data), *out)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	fs.Parse(args)
	m, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	chunks, missing, err := loadChunks(*dir, m)
	if err != nil {
		return err
	}
	lost := detectLost(m, chunks, missing)
	bad := 0
	for _, cells := range lost {
		bad += len(cells)
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d bad sectors (run repair)", bad)
	}
	data, err := assemble(m, chunks)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != m.FileSHA256 {
		return errors.New("verify: SHA-256 mismatch")
	}
	fmt.Println("verify: all sectors healthy, SHA-256 matches")
	return nil
}
