package apps

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pdspbench/internal/engine"
	"pdspbench/internal/tuple"
)

// splitRow is one splitter output as the check compares it.
type splitRow struct {
	word          string
	count         int64
	event, ingest int64
}

// FuzzSplitterColumnsMatchRows holds the splitter's column path to its
// row path: for the selected sentences of a batch, ProcessColumns must
// emit what Process emits, row for row, and both must split exactly as
// strings.Fields does. Sentences are the input cut at '|'; every third
// one is deselected, and output batches hold 3 rows so the appender
// ships mid-batch.
func FuzzSplitterColumnsMatchRows(f *testing.F) {
	for _, s := range []string{
		"w001 w002 w003",
		"  lead and trail  |\ttabs\tand\nnewlines\r\v\f|",
		"nbsp\u00a0x nel\u0085y ideographic\u3000space|em\u2003space",
		"bad\xffutf8 \xc2 half|  |x",
		"",
		"|||",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sentences := strings.Split(text, "|")
		var want []splitRow
		in := tuple.NewColumnBatch([]tuple.Type{tuple.TypeString}, len(sentences))
		for i, s := range sentences {
			in.AddRow(int64(100+i), int64(1000+i))
			in.StrCol(0)[i] = s
		}
		in.Seal(len(sentences))
		var sel []int32
		for _, i := range in.Sel() {
			if i%3 == 1 {
				continue
			}
			sel = append(sel, i)
			s := sentences[i]
			var rows []splitRow
			splitter{}.Process(&tuple.Tuple{Values: []tuple.Value{tuple.String(s)}, EventTime: int64(100 + i), Ingest: int64(1000 + i)},
				func(o *tuple.Tuple) {
					rows = append(rows, splitRow{o.Values[0].S, o.Values[1].I, o.EventTime, o.Ingest})
					o.Release()
				})
			fields := strings.Fields(s)
			if len(rows) != len(fields) {
				t.Fatalf("Process split %q into %d words, strings.Fields into %d", s, len(rows), len(fields))
			}
			for j, r := range rows {
				if r.word != fields[j] || r.count != 1 {
					t.Fatalf("Process word %d of %q = (%q, %d), want (%q, 1)", j, s, r.word, r.count, fields[j])
				}
			}
			want = append(want, rows...)
		}
		in.SetSel(sel)

		var got []splitRow
		out := engine.NewColumnOut(splitter{}.OutKinds(), 3, func(cb *tuple.ColumnBatch) {
			for _, r := range cb.Sel() {
				got = append(got, splitRow{cb.StrCol(0)[r], cb.IntCol(1)[r], cb.EventCol()[r], cb.IngestCol()[r]})
			}
			cb.Release()
		})
		splitter{}.ProcessColumns(in, out)
		out.Flush()
		if len(got) != len(want) {
			t.Fatalf("ProcessColumns emitted %d rows, Process %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d: ProcessColumns %+v, Process %+v", i, got[i], want[i])
			}
		}
	})
}

// wcRun is what one WordCount run leaves behind for the plane check.
type wcRun struct {
	words map[string]float64
	ops   map[string][2]uint64
	rep   *engine.Report
}

func runWordCount(t *testing.T, parallelism int, rowPlane bool) wcRun {
	t.Helper()
	plan := WordCount.Build(100_000)
	plan.SetUniformParallelism(parallelism)
	var mu sync.Mutex
	res := wcRun{words: map[string]float64{}, ops: map[string][2]uint64{}}
	rt, err := engine.New(plan, engine.Options{
		Sources: WordCount.Sources(7, 20_000),
		UDOs:    WordCount.UDOs(),
		SinkTap: func(_ string, tp *tuple.Tuple) {
			mu.Lock()
			res.words[tp.Values[0].S] += tp.Values[1].D
			mu.Unlock()
			tp.Release()
		},
		RowPlane: rowPlane,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.rep, err = rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for op, s := range res.rep.PerOperator {
		res.ops[op] = [2]uint64{s.In, s.Out}
	}
	return res
}

// TestWordCountPlanesAgree runs WordCount on the row plane and on the
// default columnar plane, where it runs on column batches from source
// to count window: per-word sink totals and every operator's in/out
// counts must be identical at parallelism 1, 2 and 4.
func TestWordCountPlanesAgree(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			rows := runWordCount(t, par, true)
			cols := runWordCount(t, par, false)
			if rows.rep.ColumnarBatches != 0 {
				t.Fatalf("row plane routed %d column batches", rows.rep.ColumnarBatches)
			}
			if cols.rep.ColumnarBatches == 0 || cols.rep.ColumnarFallbackBatches != 0 {
				t.Fatalf("columnar run routed %d column batches, %d fell back to rows; want WC on columns end to end",
					cols.rep.ColumnarBatches, cols.rep.ColumnarFallbackBatches)
			}
			if len(rows.words) == 0 {
				t.Fatal("row plane counted no words")
			}
			if !reflect.DeepEqual(rows.words, cols.words) {
				t.Fatalf("per-word totals differ: row plane %d words, columnar %d", len(rows.words), len(cols.words))
			}
			if !reflect.DeepEqual(rows.ops, cols.ops) {
				t.Fatalf("per-operator counts differ:\nrow plane %v\ncolumnar  %v", rows.ops, cols.ops)
			}
		})
	}
}
