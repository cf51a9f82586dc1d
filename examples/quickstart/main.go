// Quickstart: encode a stripe with the paper's exemplary configuration
// (n=8, r=4, m=2, e=(1,1,2)), lose two whole devices plus a stair of
// sector failures, and repair everything.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"stair"
)

func main() {
	code, err := stair.New(stair.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code: %v\n", code.Config())
	fmt.Printf("data sectors per stripe: %d of %d (efficiency %.1f%%)\n",
		code.NumDataCells(), code.N()*code.R(), 100*code.StorageEfficiency())
	fmt.Printf("encoding method chosen by cost: %v (upstairs %d, downstairs %d, standard %d Mult_XORs)\n\n",
		code.Method(), code.Cost(stair.MethodUpstairs),
		code.Cost(stair.MethodDownstairs), code.Cost(stair.MethodStandard))

	// Fill a stripe with data and encode.
	st, err := code.NewStripe(4096)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, c := range code.DataCells() {
		rng.Read(st.Sector(c.Col, c.Row))
	}
	if err := code.Encode(st); err != nil {
		log.Fatal(err)
	}
	pristine := st.Clone()

	// Disaster: devices 6 and 7 die; chunks 3, 4 and 5 each lose
	// sectors in the worst pattern the code is built for.
	lost := []stair.Cell{
		{Col: 6, Row: 0}, {Col: 6, Row: 1}, {Col: 6, Row: 2}, {Col: 6, Row: 3},
		{Col: 7, Row: 0}, {Col: 7, Row: 1}, {Col: 7, Row: 2}, {Col: 7, Row: 3},
		{Col: 3, Row: 3}, {Col: 4, Row: 3}, {Col: 5, Row: 2}, {Col: 5, Row: 3},
	}
	for _, c := range lost {
		for i := range st.Sector(c.Col, c.Row) {
			st.Sector(c.Col, c.Row)[i] = 0
		}
	}
	fmt.Printf("injected %d lost sectors (2 whole devices + e=(1,1,2) sector failures)\n", len(lost))

	if err := code.Repair(st, lost); err != nil {
		log.Fatal(err)
	}
	for i := range st.Cells {
		if !bytes.Equal(st.Cells[i], pristine.Cells[i]) {
			log.Fatalf("cell %d differs after repair", i)
		}
	}
	fmt.Println("repaired; stripe verified byte-identical")

	// Incremental update: rewrite one data sector; only the dependent
	// parity sectors change.
	penalty, _ := code.UpdatePenalty(stair.Cell{Col: 0, Row: 0})
	buf := make([]byte, 4096)
	rng.Read(buf)
	if err := code.Update(st, stair.Cell{Col: 0, Row: 0}, buf); err != nil {
		log.Fatal(err)
	}
	ok, err := code.Verify(st)
	if err != nil || !ok {
		log.Fatalf("verify after update: ok=%v err=%v", ok, err)
	}
	fmt.Printf("incremental update touched %d parity sectors; stripe still verifies\n", penalty)
}
