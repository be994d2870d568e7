//! Correctness checks over a replay, the answers digest and the store that
//! keeps digests identical across runs of one workload and seed.

use crate::exec::{Outcome, Record};
use crate::workload::{Op, Workload};
use std::collections::HashMap;
use std::path::Path;

/// Checks every record of a replay: each answer against its question,
/// each repeat of a question (within one pool epoch) against its first
/// answer, and every write and every non-busy query for success. Returns
/// the violations found.
pub fn check_records(workload: &Workload, records: &[Record]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut seen: HashMap<(u32, usize), String> = HashMap::new();
    let mut epoch = 0usize;
    let mut last_idx = None;
    for r in records {
        if last_idx.is_some_and(|l| r.idx <= l) {
            errors.push(format!("records out of order at op {}", r.idx));
        }
        last_idx = Some(r.idx);
        match (r.op, &r.outcome) {
            (Op::Query(q), Outcome::Answer { answer, .. }) => {
                let question = &workload.questions[q as usize];
                if let Err(e) = crate::reply::check_answer(question.asked(), answer) {
                    errors.push(format!("op {} ({}): {e}", r.idx, question.line(false)));
                }
                let canonical = answer.canonical();
                let first = seen.entry((q, epoch)).or_insert_with(|| canonical.clone());
                if *first != canonical {
                    errors.push(format!(
                        "op {}: question {q} answered {canonical} after {first}",
                        r.idx
                    ));
                }
            }
            (Op::Query(_), Outcome::Failed { busy: true, .. }) => {}
            (_, Outcome::Failed { reason, .. }) => {
                errors.push(format!("op {} {:?} failed: {reason}", r.idx, r.op));
            }
            (Op::Query(_), Outcome::Done) => {
                errors.push(format!("op {}: query without an answer", r.idx));
            }
            (_, _) => epoch += 1,
        }
    }
    errors
}

/// FNV-1a over the check prefix's answers (blockers, edges and spread per
/// operation). `None` if a prefix operation is missing.
pub fn digest(workload: &Workload, records: &[Record]) -> Option<u64> {
    let prefix = workload.spec.check_ops.min(workload.ops.len());
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut covered = 0usize;
    for r in records.iter().filter(|r| r.idx < prefix) {
        covered += 1;
        let item = match &r.outcome {
            Outcome::Answer { answer, .. } => format!("{}:{}\n", r.idx, answer.canonical()),
            Outcome::Failed { .. } => format!("{}:failed\n", r.idx),
            Outcome::Done => format!("{}:{:?}\n", r.idx, r.op),
        };
        for byte in item.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (covered == prefix).then_some(hash)
}

/// Mean residual `spread=` over the distinct questions of the check
/// prefix (first answer of each).
pub fn mean_spread(workload: &Workload, records: &[Record]) -> Option<f64> {
    let mut seen = std::collections::HashSet::new();
    let spreads: Vec<f64> = records
        .iter()
        .filter(|r| r.idx < workload.spec.check_ops)
        .filter_map(|r| match (r.op, r.answer()) {
            (Op::Query(q), Some(a)) if seen.insert(q) => Some(a.spread_value()),
            _ => None,
        })
        .collect();
    crate::stats::mean(&spreads)
}

/// Compares `digest` with the one stored for `(workload, seed)` in
/// `store`, recording it if it is the first. Returns a violation on a
/// mismatch.
pub fn check_digest_store(store: &Path, workload: &str, seed: u64, digest: u64) -> Option<String> {
    let text = std::fs::read_to_string(store).unwrap_or_default();
    let key = format!("{workload} {seed}");
    for line in text.lines() {
        if let Some(stored) = line.strip_prefix(&key).and_then(|r| r.strip_prefix(' ')) {
            let expected = format!("{digest:016x}");
            return (stored.trim() != expected).then(|| {
                format!("answers digest {expected} differs from {stored} of an earlier run")
            });
        }
    }
    let line = format!("{key} {digest:016x}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(store)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    written
        .err()
        .map(|e| format!("cannot record digest in {}: {e}", store.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::Answer;
    use crate::workload::{Question, Spec};

    fn workload() -> Workload {
        let q = |seeds| Question {
            seeds,
            budget: 2,
            alg: "ris",
            intervene: None,
        };
        Workload {
            spec: Spec {
                check_ops: 3,
                ..Spec::by_name("sketch-hot").unwrap()
            },
            seed: 1,
            questions: vec![q([1, 2]), q([3, 4])],
            ops: vec![Op::Query(0), Op::Rebuild(9), Op::Query(0), Op::Query(1)],
        }
    }

    fn answered(idx: usize, q: u32, blockers: Vec<u32>, spread: &str) -> Record {
        Record {
            idx,
            lane: 0,
            op: Op::Query(q),
            start_us: 0.0,
            end_us: 1.0,
            outcome: Outcome::Answer {
                answer: Answer {
                    blockers,
                    spread: spread.into(),
                    ..Answer::default()
                },
                disposition: None,
            },
        }
    }

    fn rebuilt(idx: usize) -> Record {
        Record {
            idx,
            lane: 0,
            op: Op::Rebuild(9),
            start_us: 0.0,
            end_us: 1.0,
            outcome: Outcome::Done,
        }
    }

    #[test]
    fn a_new_epoch_may_change_an_answer_a_repeat_may_not() {
        let w = workload();
        let ok = [
            answered(0, 0, vec![5], "1.000000"),
            rebuilt(1),
            answered(2, 0, vec![6], "2.000000"),
            answered(3, 1, vec![7], "3.000000"),
        ];
        assert!(check_records(&w, &ok).is_empty());
        assert_eq!(mean_spread(&w, &ok), Some(1.0));
        let d = digest(&w, &ok).unwrap();
        assert_eq!(digest(&w, &ok[..3]), Some(d), "op 3 is past the prefix");
        assert_eq!(digest(&w, &ok[..2]), None, "prefix incomplete");
        let mut changed = ok.clone();
        changed[2] = answered(2, 0, vec![8], "2.000000");
        assert_ne!(digest(&w, &changed), Some(d));

        let mut w2 = workload();
        w2.ops[1] = Op::Query(0);
        let repeat = [
            answered(0, 0, vec![5], "1.000000"),
            answered(1, 0, vec![6], "1.000000"),
        ];
        assert_eq!(check_records(&w2, &repeat).len(), 1);
        let seed_blocked = [answered(0, 0, vec![2], "1.000000")];
        assert_eq!(check_records(&w, &seed_blocked).len(), 1);
    }

    #[test]
    fn digest_store_detects_drift() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("digests.txt");
        let _ = std::fs::remove_file(&store);
        assert_eq!(check_digest_store(&store, "w", 1, 7), None);
        assert_eq!(check_digest_store(&store, "w", 1, 7), None);
        assert_eq!(check_digest_store(&store, "w", 2, 8), None);
        assert!(check_digest_store(&store, "w", 1, 9).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
