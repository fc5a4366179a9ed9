package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
)

// hostTimingMark, on the line just above a table, marks it as host timing:
// wall seconds and host nanoseconds are measured on one host, not read off
// the deterministic run, so the table check skips the whole table.
const hostTimingMark = "<!-- doclint: host timing -->"

// derivedMark in a table cell marks the cell as derived (a ratio, or a
// rounding of a number in the run's output), and in a header cell marks
// the whole column.
const derivedMark = "†"

// lintTables checks that every decimal in a table row of the markdown file
// doc appears in results, the output of a full run that the tables quote:
// a table left stale by a change that moved the run shows up as a number
// the run no longer prints. Tables marked as host timing and cells marked
// as derived are skipped, and so are fenced code blocks.
func lintTables(doc, results string) []string {
	out, err := os.ReadFile(results)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", results, err)}
	}
	printed := map[string]bool{}
	for _, d := range decimals(string(out)) {
		printed[d] = true
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", doc, err)}
	}
	var problems []string
	lines := strings.Split(string(data), "\n")
	inFence, inTable, skipTable := false, false, false
	var derivedCols []bool
	for i, line := range lines {
		if codeFence.MatchString(line) {
			inFence = !inFence
			continue
		}
		isRow := !inFence && strings.HasPrefix(strings.TrimSpace(line), "|")
		if !isRow {
			inTable = false
			continue
		}
		cells := tableCells(line)
		if !inTable {
			// The header row: it opens the table and names its columns.
			inTable = true
			skipTable = i > 0 && strings.TrimSpace(lines[i-1]) == hostTimingMark
			derivedCols = make([]bool, len(cells))
			for c, cell := range cells {
				derivedCols[c] = strings.Contains(cell, derivedMark)
			}
			continue
		}
		if skipTable || strings.Trim(line, "|-: \t") == "" {
			continue // host timing, or the delimiter row
		}
		for c, cell := range cells {
			if strings.Contains(cell, derivedMark) || c < len(derivedCols) && derivedCols[c] {
				continue
			}
			for _, d := range decimals(cell) {
				if !printed[d] {
					problems = append(problems, fmt.Sprintf("%s:%d: %s is not in %s", doc, i+1, d, results))
				}
			}
		}
	}
	return problems
}

// tableCells splits a markdown table row into its cells.
func tableCells(row string) []string {
	row = strings.TrimSpace(row)
	row = strings.TrimPrefix(row, "|")
	row = strings.TrimSuffix(row, "|")
	return strings.Split(row, "|")
}

// numRun matches a maximal run of digits and dots.
var numRun = regexp.MustCompile(`[0-9.]+`)

// decimals returns the decimal numbers in s: runs of digits and dots,
// trailing dots dropped, with exactly one dot between digits. A section
// number such as 4.1.1 is not a decimal.
func decimals(s string) []string {
	var out []string
	for _, run := range numRun.FindAllString(s, -1) {
		run = strings.TrimRight(run, ".")
		if dot := strings.IndexByte(run, '.'); dot > 0 && dot < len(run)-1 && strings.Count(run, ".") == 1 {
			out = append(out, run)
		}
	}
	return out
}
