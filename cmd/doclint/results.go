package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
)

// resultsFence opens an excerpt of the full run.
const resultsFence = "```results"

// lintExcerpts checks that every table in the markdown file doc is a
// verbatim excerpt of results, the full run's output: a ```results block
// whose first line is one of the run's `== title ==` lines and whose other
// lines, trailing blanks trimmed, are lines of that title's section (title
// to next blank line, notes included) in the run's order. Rows may be
// skipped, never edited or reordered. A markdown table row outside a fence
// would be a hand copy, so it fails too.
func lintExcerpts(doc, results string) []string {
	run, err := os.ReadFile(results)
	if err != nil {
		return []string{err.Error()}
	}
	type section struct {
		first int // the title's line number
		lines []string
	}
	sections := map[string]*section{}
	var cur *section
	for i, line := range strings.Split(string(run), "\n") {
		line = strings.TrimRight(line, " \t")
		switch {
		case line == "":
			cur = nil
		case cur != nil:
			cur.lines = append(cur.lines, line)
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			cur = &section{i + 1, []string{line}}
			sections[line] = cur
		}
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	bad := func(i int, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s:%d: ", doc, i+1)+fmt.Sprintf(format, args...))
	}
	inFence, excerpt := false, false
	var sec *section // the open excerpt's section, nil after an unknown title
	next := 0        // the first line of sec the excerpt's next line may match; 0 before the title
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, " \t")
		switch {
		case codeFence.MatchString(line):
			inFence = !inFence
			excerpt, sec, next = inFence && line == resultsFence, nil, 0
		case !inFence:
			if strings.HasPrefix(strings.TrimSpace(line), "|") {
				bad(i, "markdown table row: quote the run's lines from %s in a %s block", results, resultsFence)
			}
		case !excerpt:
		case next == 0:
			if sec, next = sections[line], 1; sec == nil {
				bad(i, "%q is not a table title of %s", line, results)
			}
		case sec != nil:
			j := slices.Index(sec.lines[next:], line)
			if j < 0 {
				bad(i, "not a line of %s:%d-%d (%s) below the excerpt's previous line",
					results, sec.first, sec.first+len(sec.lines)-1, sec.lines[0])
				continue
			}
			next += j + 1
		}
	}
	return out
}
