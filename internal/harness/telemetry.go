package harness

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/obs"
)

// Telemetry exports: the sweep's scraped metric rows and request spans
// in long format, keyed by (scenario, cell) plus each row's own keys.
// Rows are emitted in declaration order of cells and canonical order
// within a cell, and every value is formatted from exact integers or
// shortest-round-trip floats — so the files are byte-identical for any
// -par or -shards value (the CI determinism gate compares them with
// cmp).

// MetricRow is one exported metric sample.
type MetricRow struct {
	Scenario string  `json:"scenario"`
	Cell     string  `json:"cell"`
	Series   string  `json:"series"`
	Node     string  `json:"node"`
	AtNs     int64   `json:"at_ns"`
	Value    float64 `json:"value"`
}

// SpanRow is one exported request span with its derived hop breakdown.
type SpanRow struct {
	Scenario string `json:"scenario"`
	Cell     string `json:"cell"`
	ID       int    `json:"id"`
	Node     string `json:"node"`
	SubmitNs int64  `json:"submit_ns"`
	ArriveNs int64  `json:"arrive_ns"`
	StartNs  int64  `json:"start_ns"`
	DoneNs   int64  `json:"done_ns"`
	ReplyNs  int64  `json:"reply_ns"`
	// NetworkNs, QueueNs, and ServiceNs decompose the end-to-end
	// latency; zero-filled on incomplete spans (ReplyNs == 0).
	NetworkNs int64 `json:"network_ns"`
	QueueNs   int64 `json:"queue_ns"`
	ServiceNs int64 `json:"service_ns"`
	// Outcome and Attempts carry the request's resolution: "ok" / 1
	// for a request that succeeded on its only attempt.
	Outcome  string `json:"outcome"`
	Attempts int    `json:"attempts"`
}

// MetricRows flattens the sweep's scraped samples into export rows.
func (sw *Sweep) MetricRows() []MetricRow {
	var rows []MetricRow
	for _, sr := range sw.Scenarios {
		for _, res := range sr.Results {
			for _, s := range res.Samples {
				rows = append(rows, MetricRow{
					Scenario: sr.Scenario.Name,
					Cell:     res.Metric.Cell,
					Series:   s.Series,
					Node:     s.Node,
					AtNs:     int64(s.At),
					Value:    s.Value,
				})
			}
		}
	}
	return rows
}

// SpanRows flattens the sweep's request spans into export rows.
func (sw *Sweep) SpanRows() []SpanRow {
	var rows []SpanRow
	for _, sr := range sw.Scenarios {
		for _, res := range sr.Results {
			for _, s := range res.Spans {
				row := SpanRow{
					Scenario: sr.Scenario.Name,
					Cell:     res.Metric.Cell,
					ID:       s.ID,
					Node:     s.Node,
					SubmitNs: int64(s.Submit),
					ArriveNs: int64(s.Arrive),
					StartNs:  int64(s.Start),
					DoneNs:   int64(s.Done),
					ReplyNs:  int64(s.Reply),
					Outcome:  s.Outcome,
					Attempts: s.Attempts,
				}
				if s.Complete() {
					row.NetworkNs = int64(s.Network())
					row.QueueNs = int64(s.Queue())
					row.ServiceNs = int64(s.Service())
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// WriteMetrics writes the sweep's metric rows to w: CSV when csv is
// true, an indented JSON array otherwise.
func (sw *Sweep) WriteMetrics(w io.Writer, csv bool) error {
	rows := sw.MetricRows()
	if !csv {
		return writeJSONRows(w, rows)
	}
	if err := writeLine(w, "scenario,cell,series,node,at_ns,value"); err != nil {
		return err
	}
	for _, r := range rows {
		line := r.Scenario + "," + r.Cell + "," + r.Series + "," + r.Node + "," +
			strconv.FormatInt(r.AtNs, 10) + "," + strconv.FormatFloat(r.Value, 'g', -1, 64)
		if err := writeLine(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpans writes the sweep's span rows to w: CSV when csv is true,
// an indented JSON array otherwise.
func (sw *Sweep) WriteSpans(w io.Writer, csv bool) error {
	rows := sw.SpanRows()
	if !csv {
		return writeJSONRows(w, rows)
	}
	if err := writeLine(w,
		"scenario,cell,id,node,submit_ns,arrive_ns,start_ns,done_ns,reply_ns,network_ns,queue_ns,service_ns,outcome,attempts"); err != nil {
		return err
	}
	for _, r := range rows {
		line := r.Scenario + "," + r.Cell + "," + strconv.Itoa(r.ID) + "," + r.Node + "," +
			strconv.FormatInt(r.SubmitNs, 10) + "," + strconv.FormatInt(r.ArriveNs, 10) + "," +
			strconv.FormatInt(r.StartNs, 10) + "," + strconv.FormatInt(r.DoneNs, 10) + "," +
			strconv.FormatInt(r.ReplyNs, 10) + "," + strconv.FormatInt(r.NetworkNs, 10) + "," +
			strconv.FormatInt(r.QueueNs, 10) + "," + strconv.FormatInt(r.ServiceNs, 10) + "," +
			r.Outcome + "," + strconv.Itoa(r.Attempts)
		if err := writeLine(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Spans collects every cell's spans in declaration order, for in-process
// consumers (the examples' breakdown summaries).
func (sw *Sweep) Spans() []obs.Span {
	var ss []obs.Span
	for _, sr := range sw.Scenarios {
		for _, res := range sr.Results {
			ss = append(ss, res.Spans...)
		}
	}
	return ss
}

func writeJSONRows(w io.Writer, rows any) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func writeLine(w io.Writer, s string) error {
	_, err := io.WriteString(w, s+"\n")
	return err
}
