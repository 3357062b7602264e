package apps

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"

	"pdspbench/internal/core"
	"pdspbench/internal/engine"
	"pdspbench/internal/stream"
	"pdspbench/internal/tuple"
)

// --- WC: Word Count -------------------------------------------------------

var wcSchema = tuple.NewSchema(tuple.Field{Name: "sentence", Type: tuple.TypeString})

// WordCount is the canonical WC application [Twitter Heron]: sentences
// are split into words by a flatMap and counted per word over tumbling
// count windows. Its operators are standard and nearly stateless, which
// is why the paper sees it scale almost linearly (O3).
var WordCount = &App{
	Code: "WC", Name: "Word Count", Area: "Text processing",
	Description: "Counts word frequencies in a sentence stream (flatMap → keyed count window).",
	Build: func(rate float64) *core.PQP {
		p := core.NewPQP("WC", "word-count")
		p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Name: "sentences", Parallelism: 1,
			Source: &core.SourceSpec{Schema: wcSchema, EventRate: rate}, OutWidth: 1})
		p.Add(&core.Operator{ID: "split", Kind: core.OpFlatMap, Name: "splitter", Parallelism: 1,
			Partition: core.PartitionRebalance,
			UDO:       &core.UDOSpec{Name: "wc/splitter", CostFactor: 2, Selectivity: 6},
			OutWidth:  2})
		p.Add(&core.Operator{ID: "count", Kind: core.OpAggregate, Name: "word-count", Parallelism: 1,
			Partition: core.PartitionHash,
			// Counting needs no per-tuple arithmetic; scale the generic
			// aggregate cost down so WC stays the light application the
			// paper groups with the consistently-performing ones.
			CostScale: 0.3,
			Agg: &core.AggregateSpec{
				Window: core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 100},
				Fn:     core.AggCount, Field: 1, KeyField: 0,
			}, OutWidth: 2})
		p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
		p.Connect("src", "split")
		p.Connect("split", "count")
		p.Connect("count", "sink")
		return p
	},
	Sources: func(seed int64, max int) map[string]engine.SourceFactory {
		return map[string]engine.SourceFactory{
			"src": sourceFactory(seed, max, 1000, func(rng *rand.Rand, i int) []tuple.Value {
				n := 3 + rng.Intn(8)
				words := make([]string, n)
				for j := range words {
					words[j] = stream.Word(rng.Intn(stream.VocabularySize))
				}
				return []tuple.Value{tuple.String(strings.Join(words, " "))}
			}),
		}
	},
	UDOs: func() map[string]engine.UDOFactory {
		return map[string]engine.UDOFactory{
			"wc/splitter": func(int) engine.UDO { return splitter{} },
		}
	},
}

// splitter emits one (word, 1) tuple per word of the sentence field.
// Both of its paths, rows and columns, split with nextWord.
type splitter struct{}

// wordKinds are the splitter's output columns: the word and its count.
var wordKinds = []tuple.Type{tuple.TypeString, tuple.TypeInt}

// Process emits pooled (word, 1) tuples and releases its input.
func (splitter) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	s, et, ing := t.At(0).S, t.EventTime, t.Ingest
	t.Release()
	for start, end := nextWord(s, 0); start < end; start, end = nextWord(s, end) {
		w := tuple.Get(2)
		w.Values[0], w.Values[1] = tuple.String(s[start:end]), tuple.Int(1)
		w.EventTime, w.Ingest = et, ing
		emit(w)
	}
}

func (splitter) Flush(func(*tuple.Tuple)) {}

// OutKinds implements engine.ColumnUDO.
func (splitter) OutKinds() []tuple.Type { return wordKinds }

// ProcessColumns implements engine.ColumnUDO: the words of every
// selected sentence, appended as (word, 1) rows. A sentence column of
// another kind reads as "" on the row path, so it splits into nothing.
func (splitter) ProcessColumns(in *tuple.ColumnBatch, out *engine.ColumnOut) {
	if in.Kind(0) != tuple.TypeString {
		return
	}
	strs, ev, inge := in.StrCol(0), in.EventCol(), in.IngestCol()
	for _, r := range in.Sel() {
		s := strs[r]
		for start, end := nextWord(s, 0); start < end; start, end = nextWord(s, end) {
			b, i := out.Row(ev[r], inge[r])
			b.StrCol(0)[i] = s[start:end]
			b.IntCol(1)[i] = 1
		}
	}
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts, the table strings.Fields uses.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextWord returns the bounds of the first word of s at or after byte
// i, splitting exactly as strings.Fields does: on runs of
// unicode.IsSpace, with invalid UTF-8 bytes part of a word. ASCII bytes
// take a table lookup; only other bytes decode as runes. start == end
// when no word remains.
func nextWord(s string, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += w
	}
	return start, i
}

// --- TT: Trending Topics ---------------------------------------------------

var ttSchema = tuple.NewSchema(tuple.Field{Name: "tweet", Type: tuple.TypeString})

// TrendingTopics [TwitterMonitor] extracts hashtags from a tweet stream
// and maintains the top-k trending set — a stateful ranking UDO after a
// keyed count window.
var TrendingTopics = &App{
	Code: "TT", Name: "Trending Topics", Area: "Social media",
	Description: "Extracts hashtags and ranks the top-k trending topics over count windows.",
	Build: func(rate float64) *core.PQP {
		p := core.NewPQP("TT", "trending-topics")
		p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Name: "tweets", Parallelism: 1,
			Source: &core.SourceSpec{Schema: ttSchema, EventRate: rate}, OutWidth: 1})
		p.Add(&core.Operator{ID: "extract", Kind: core.OpFlatMap, Name: "hashtags", Parallelism: 1,
			Partition: core.PartitionRebalance,
			UDO:       &core.UDOSpec{Name: "tt/extract", CostFactor: 3, Selectivity: 1.5},
			OutWidth:  2})
		p.Add(&core.Operator{ID: "count", Kind: core.OpAggregate, Name: "topic-count", Parallelism: 1,
			Partition: core.PartitionHash,
			Agg: &core.AggregateSpec{
				Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyCount, LengthTups: 250, SlideRatio: 0.4},
				Fn:     core.AggCount, Field: 1, KeyField: 0,
			}, OutWidth: 2})
		p.Add(&core.Operator{ID: "rank", Kind: core.OpUDO, Name: "ranker", Parallelism: 1,
			Partition: core.PartitionHash,
			UDO:       &core.UDOSpec{Name: "tt/rank", CostFactor: 5, StateFactor: 0.5, Selectivity: 0.1},
			OutWidth:  2})
		p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
		p.Connect("src", "extract")
		p.Connect("extract", "count")
		p.Connect("count", "rank")
		p.Connect("rank", "sink")
		return p
	},
	Sources: func(seed int64, max int) map[string]engine.SourceFactory {
		return map[string]engine.SourceFactory{
			"src": sourceFactory(seed, max, 1000, func(rng *rand.Rand, i int) []tuple.Value {
				var b strings.Builder
				n := 4 + rng.Intn(8)
				for j := 0; j < n; j++ {
					if j > 0 {
						b.WriteByte(' ')
					}
					// ~30% of words are hashtags with skewed popularity.
					if rng.Float64() < 0.3 {
						b.WriteByte('#')
						b.WriteString(stream.Word(int(rng.ExpFloat64() * 10)))
					} else {
						b.WriteString(stream.Word(rng.Intn(stream.VocabularySize)))
					}
				}
				return []tuple.Value{tuple.String(b.String())}
			}),
		}
	},
	UDOs: func() map[string]engine.UDOFactory {
		return map[string]engine.UDOFactory{
			"tt/extract": func(int) engine.UDO { return hashtagExtractor{} },
			"tt/rank":    func(int) engine.UDO { return &topicRanker{top: newTopK(10), every: 25} },
		}
	},
}

// hashtagExtractor emits (hashtag, 1) for every #word in the tweet.
type hashtagExtractor struct{}

func (hashtagExtractor) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	for _, w := range strings.Fields(t.At(0).S) {
		if strings.HasPrefix(w, "#") && len(w) > 1 {
			emit(&tuple.Tuple{
				Values:    []tuple.Value{tuple.String(w), tuple.Int(1)},
				EventTime: t.EventTime, Ingest: t.Ingest,
			})
		}
	}
}

func (hashtagExtractor) Flush(func(*tuple.Tuple)) {}

// topicRanker folds (topic, count) window results and periodically emits
// the current top-k as (topic, rank) tuples.
type topicRanker struct {
	top   *topK
	every int
	seen  int
	maxET int64
	maxIn int64
}

func (r *topicRanker) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	r.top.counts[t.At(0).S] += int64(t.At(1).D)
	if t.EventTime > r.maxET {
		r.maxET = t.EventTime
	}
	if t.Ingest > r.maxIn {
		r.maxIn = t.Ingest
	}
	r.seen++
	if r.seen%r.every == 0 {
		r.emitRanking(emit)
	}
}

func (r *topicRanker) emitRanking(emit func(*tuple.Tuple)) {
	for rank, e := range r.top.ranking() {
		emit(&tuple.Tuple{
			Values:    []tuple.Value{tuple.String(e.Key), tuple.Int(int64(rank + 1))},
			EventTime: r.maxET, Ingest: r.maxIn,
		})
	}
}

func (r *topicRanker) Flush(emit func(*tuple.Tuple)) {
	if r.seen > 0 && r.seen%r.every != 0 {
		r.emitRanking(emit)
	}
}

// --- SA: Sentiment Analysis ------------------------------------------------

var saSchema = tuple.NewSchema(
	tuple.Field{Name: "user", Type: tuple.TypeInt},
	tuple.Field{Name: "tweet", Type: tuple.TypeString},
)

// sentimentLexicon is a small embedded polarity lexicon over the
// synthetic vocabulary: even words lean positive, words divisible by 7
// strongly negative — enough structure for deterministic tests.
var sentimentLexicon = func() map[string]float64 {
	lex := make(map[string]float64, stream.VocabularySize)
	for i := 0; i < stream.VocabularySize; i++ {
		switch {
		case i%7 == 0:
			lex[stream.Word(i)] = -1
		case i%2 == 0:
			lex[stream.Word(i)] = 0.5
		default:
			lex[stream.Word(i)] = -0.25
		}
	}
	return lex
}()

// SentimentAnalysis [voltas/real-time-sentiment-analytic] scores tweets
// against a polarity lexicon — a data-intensive UDO (every word is
// looked up and scored), which is why the paper sees SA gain strongly
// from parallelism (O1) and heterogeneous hardware (O5).
var SentimentAnalysis = &App{
	Code: "SA", Name: "Sentiment Analysis", Area: "Social media",
	Description:   "Scores tweet sentiment with a lexicon UDO, aggregates mean polarity per user window.",
	DataIntensive: true,
	Build: func(rate float64) *core.PQP {
		p := core.NewPQP("SA", "sentiment-analysis")
		p.Add(&core.Operator{ID: "src", Kind: core.OpSource, Name: "tweets", Parallelism: 1,
			Source: &core.SourceSpec{Schema: saSchema, EventRate: rate}, OutWidth: 2})
		p.Add(&core.Operator{ID: "score", Kind: core.OpUDO, Name: "sentiment", Parallelism: 1,
			Partition: core.PartitionRebalance,
			UDO:       &core.UDOSpec{Name: "sa/score", CostFactor: 16, Selectivity: 1},
			OutWidth:  2})
		p.Add(&core.Operator{ID: "agg", Kind: core.OpAggregate, Name: "mean-polarity", Parallelism: 1,
			Partition: core.PartitionHash,
			Agg: &core.AggregateSpec{
				Window: core.WindowSpec{Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 1000, SlideRatio: 0.5},
				Fn:     core.AggMean, Field: 1, KeyField: 0,
			}, OutWidth: 2})
		p.Add(&core.Operator{ID: "sink", Kind: core.OpSink, Parallelism: 1, Partition: core.PartitionRebalance})
		p.Connect("src", "score")
		p.Connect("score", "agg")
		p.Connect("agg", "sink")
		return p
	},
	Sources: func(seed int64, max int) map[string]engine.SourceFactory {
		return map[string]engine.SourceFactory{
			"src": sourceFactory(seed, max, 1000, func(rng *rand.Rand, i int) []tuple.Value {
				n := 5 + rng.Intn(10)
				words := make([]string, n)
				for j := range words {
					words[j] = stream.Word(rng.Intn(stream.VocabularySize))
				}
				return []tuple.Value{
					tuple.Int(int64(rng.Intn(500))),
					tuple.String(strings.Join(words, " ")),
				}
			}),
		}
	},
	UDOs: func() map[string]engine.UDOFactory {
		return map[string]engine.UDOFactory{
			"sa/score": func(int) engine.UDO { return sentimentScorer{} },
		}
	},
}

// sentimentScorer replaces the tweet text with its lexicon score.
type sentimentScorer struct{}

func (sentimentScorer) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	var score float64
	for _, w := range strings.Fields(t.At(1).S) {
		score += sentimentLexicon[w]
	}
	emit(&tuple.Tuple{
		Values:    []tuple.Value{t.At(0), tuple.Double(score)},
		EventTime: t.EventTime, Ingest: t.Ingest,
	})
}

func (sentimentScorer) Flush(func(*tuple.Tuple)) {}
