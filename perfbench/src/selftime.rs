//! Self time of every span in one session's event stream.
//!
//! A span's self time is its duration minus the part of that interval its
//! child spans cover (the union of the children's intervals). Children of a
//! span ran one after another on the span's own thread, so their union is
//! the sum of their durations. The exception is the `race` span: its
//! children are engine lanes started together on threads of their own, so
//! they overlap and their union is the longest lane. The union is worked
//! out from durations rather than timestamps because a race buffers each
//! lane's events and re-stamps them when it absorbs them; only the lanes'
//! `elapsed_us` survive.

use std::collections::HashMap;

use rfn_trace::{Event, EventKind, Fields};

/// The span whose children run concurrently.
const CONCURRENT: &str = "race";

/// One closed span with its inclusive and self time.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTime {
    /// Span name (`rfn`, `reach`, `race`, ...).
    pub name: String,
    /// Whether the span has no parent in the stream (a job's top span).
    pub root: bool,
    /// Inclusive duration, microseconds.
    pub elapsed_us: u64,
    /// Duration not covered by child spans, microseconds.
    pub self_us: u64,
    /// Fields recorded on the span's exit.
    pub fields: Fields,
}

/// Every span of the stream that both entered and exited, in entry order,
/// with its self time.
pub fn span_times(events: &[Event]) -> Vec<SpanTime> {
    struct Open {
        name: String,
        parent: u64,
        elapsed_us: Option<u64>,
        fields: Fields,
    }
    let mut spans: Vec<Open> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for event in events {
        match &event.kind {
            EventKind::Enter {
                id, parent, name, ..
            } => {
                index.insert(*id, spans.len());
                spans.push(Open {
                    name: name.clone(),
                    parent: *parent,
                    elapsed_us: None,
                    fields: Vec::new(),
                });
            }
            EventKind::Exit {
                id,
                elapsed_us,
                fields,
                ..
            } => {
                if let Some(&i) = index.get(id) {
                    spans[i].elapsed_us = Some(*elapsed_us);
                    spans[i].fields = fields.clone();
                }
            }
            EventKind::Point { .. } | EventKind::Counter { .. } => {}
        }
    }

    // Per span: (sum, longest) of its closed children's durations.
    let mut children = vec![(0u64, 0u64); spans.len()];
    for span in &spans {
        let (Some(elapsed), Some(&p)) = (span.elapsed_us, index.get(&span.parent)) else {
            continue;
        };
        children[p].0 += elapsed;
        children[p].1 = children[p].1.max(elapsed);
    }

    spans
        .into_iter()
        .zip(children)
        .filter_map(|(span, (sum, longest))| {
            let elapsed_us = span.elapsed_us?;
            let covered = if span.name == CONCURRENT {
                longest
            } else {
                sum
            };
            Some(SpanTime {
                root: !index.contains_key(&span.parent),
                // Durations are truncated to whole microseconds, so children
                // can add up to a little more than their parent.
                self_us: elapsed_us.saturating_sub(covered),
                name: span.name,
                elapsed_us,
                fields: span.fields,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of a hand-built stream: enter `(id, parent, name)` or exit
    /// `(id, elapsed_us)`.
    enum Step {
        In(u64, u64, &'static str),
        Out(u64, u64),
    }

    fn stream(steps: &[Step]) -> Vec<Event> {
        steps
            .iter()
            .enumerate()
            .map(|(seq, step)| Event {
                seq: seq as u64,
                // Lanes are re-stamped on absorption: timestamps carry no
                // information the derivation may rely on.
                t_us: 0,
                kind: match *step {
                    Step::In(id, parent, name) => EventKind::Enter {
                        id,
                        parent,
                        name: name.to_owned(),
                        fields: Vec::new(),
                    },
                    Step::Out(id, elapsed_us) => EventKind::Exit {
                        id,
                        name: String::new(),
                        elapsed_us,
                        fields: Vec::new(),
                    },
                },
            })
            .collect()
    }

    fn selfs(spans: &[SpanTime]) -> Vec<(&str, u64)> {
        spans.iter().map(|s| (s.name.as_str(), s.self_us)).collect()
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        use Step::*;
        let events = stream(&[
            In(1, 0, "rfn"),
            In(2, 1, "iteration"),
            In(3, 2, "reach"),
            Out(3, 50),
            In(4, 2, "concretize"),
            In(5, 4, "sim.random"),
            Out(5, 12),
            Out(4, 30),
            Out(2, 90),
            Out(1, 100),
        ]);
        let spans = span_times(&events);
        assert_eq!(
            selfs(&spans),
            [
                ("rfn", 10),
                ("iteration", 10),
                ("reach", 50),
                ("concretize", 18),
                ("sim.random", 12)
            ]
        );
        assert_eq!(spans.iter().map(|s| s.self_us).sum::<u64>(), 100);
        assert!(spans[0].root && !spans[1].root);
    }

    #[test]
    fn overlapping_race_lanes_cover_their_union() {
        use Step::*;
        // Three lanes start together under the race: the union of their
        // intervals is the longest lane (58), not the sum (133).
        let events = stream(&[
            In(1, 0, "race"),
            In(2, 1, "rfn"),
            In(3, 2, "reach"),
            Out(3, 40),
            Out(2, 55),
            In(4, 1, "plain_mc"),
            Out(4, 20),
            In(5, 1, "bmc"),
            Out(5, 58),
            Out(1, 60),
        ]);
        let spans = span_times(&events);
        assert_eq!(
            selfs(&spans),
            [
                ("race", 2),
                ("rfn", 15),
                ("reach", 40),
                ("plain_mc", 20),
                ("bmc", 58)
            ]
        );
    }

    #[test]
    fn truncated_children_never_make_self_time_negative() {
        use Step::*;
        let events = stream(&[
            In(1, 0, "iteration"),
            In(2, 1, "reach"),
            Out(2, 6),
            In(3, 1, "refine"),
            Out(3, 5),
            Out(1, 10),
        ]);
        assert_eq!(span_times(&events)[0].self_us, 0);
    }

    #[test]
    fn spans_that_never_exit_are_dropped_and_cover_nothing() {
        use Step::*;
        let events = stream(&[In(1, 0, "rfn"), In(2, 1, "reach"), Out(1, 7)]);
        assert_eq!(selfs(&span_times(&events)), [("rfn", 7)]);
    }
}
