package main

import (
	"fmt"
	"strings"

	"stair/internal/core"
)

func init() {
	register("table2", "upstairs decoding steps for the exemplary config (paper Table 2)", runTable2)
	register("table3", "downstairs encoding steps for the exemplary config (paper Table 3)", runTable3)
}

func exemplaryCode(p core.Placement) (*core.Code, error) {
	return core.New(core.Config{N: 8, R: 4, M: 2, E: []int{1, 1, 2}, Placement: p})
}

func printSteps(steps []core.TraceStep) {
	for i, s := range steps {
		fmt.Printf("%4d  %-55s ⇒ %-28s %s\n", i+1,
			strings.Join(s.Inputs, ","), strings.Join(s.Outputs, ","), s.Coding)
	}
}

func runTable2() error {
	c, err := exemplaryCode(core.Outside)
	if err != nil {
		return err
	}
	lost := []core.Cell{
		{Col: 6, Row: 0}, {Col: 6, Row: 1}, {Col: 6, Row: 2}, {Col: 6, Row: 3},
		{Col: 7, Row: 0}, {Col: 7, Row: 1}, {Col: 7, Row: 2}, {Col: 7, Row: 3},
		{Col: 3, Row: 3}, {Col: 4, Row: 3}, {Col: 5, Row: 2}, {Col: 5, Row: 3},
	}
	steps, err := c.UpstairsDecodeTrace(lost)
	if err != nil {
		return err
	}
	fmt.Println("worst-case erasure of Figure 4: chunks 6,7 failed; d3,3 d3,4 d2,5 d3,5 lost")
	printSteps(steps)
	return nil
}

func runTable3() error {
	c, err := exemplaryCode(core.Inside)
	if err != nil {
		return err
	}
	steps, err := c.EncodeTrace(core.MethodDownstairs)
	if err != nil {
		return err
	}
	fmt.Println("downstairs encoding (zeroed outside globals elided from inputs)")
	printSteps(steps)
	return nil
}
