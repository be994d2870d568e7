//! Parsing and checking of line-protocol replies (`docs/protocol.md`).

/// One parsed reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// `OK …`: `key=value` fields in order, plus any bare words
    /// (`OK pong`, `OK bye`).
    Ok {
        fields: Vec<(String, String)>,
        words: Vec<String>,
    },
    /// `ERR <reason>`; `busy_retry_ms` is set for admission rejections
    /// (`ERR busy retry_after_ms=<hint>`).
    Err {
        reason: String,
        busy_retry_ms: Option<u64>,
    },
}

impl Reply {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        match self {
            Reply::Ok { fields, .. } => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            Reply::Err { .. } => None,
        }
    }
}

/// Parses one reply line. Anything that is neither `OK …` nor `ERR …`, or
/// an `OK` field with an empty key, is a protocol violation.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(reason) = line.strip_prefix("ERR ") {
        let busy_retry_ms = reason
            .strip_prefix("busy retry_after_ms=")
            .map(|hint| {
                hint.parse()
                    .map_err(|_| format!("unparsable busy hint in {line:?}"))
            })
            .transpose()?;
        return Ok(Reply::Err {
            reason: reason.to_string(),
            busy_retry_ms,
        });
    }
    let body = match line.strip_prefix("OK") {
        Some("") => "",
        Some(rest) if rest.starts_with(' ') => &rest[1..],
        _ => return Err(format!("reply is neither OK nor ERR: {line:?}")),
    };
    let mut fields = Vec::new();
    let mut words = Vec::new();
    for token in body.split(' ').filter(|t| !t.is_empty()) {
        match token.split_once('=') {
            Some(("", _)) => return Err(format!("empty field key in {line:?}")),
            Some((k, v)) => fields.push((k.to_string(), v.to_string())),
            None => words.push(token.to_string()),
        }
    }
    Ok(Reply::Ok { fields, words })
}

/// The `trace=1` part of a `QUERY` reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryTrace {
    pub trace_id: u64,
    pub disposition: String,
    /// `(phase, µs)` in reply order; empty for `phases=none`.
    pub phases: Vec<(String, u64)>,
}

/// A containment answer, from any path: a `QUERY` reply, an engine
/// `QueryResult` or a solver `BlockerSelection`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    pub blockers: Vec<u32>,
    /// `None` when the reply carries no `edges=` field.
    pub edges: Option<Vec<(u32, u32)>>,
    /// `spread=` exactly as rendered (`%.6f` or `nan`).
    pub spread: String,
    pub cached: bool,
    pub rounds: u64,
    pub samples: u64,
    pub elapsed_us: u64,
    pub trace: Option<QueryTrace>,
}

impl Answer {
    /// The residual spread as a number (`NaN` for `nan`).
    pub fn spread_value(&self) -> f64 {
        self.spread.parse().unwrap_or(f64::NAN)
    }

    /// The answer's identity for the digest: blockers, edges and spread —
    /// never `elapsed_us`, `cached` or the trace fields, which legitimately
    /// differ between runs, paths and cache states.
    pub fn canonical(&self) -> String {
        let blockers = join(self.blockers.iter().map(u32::to_string));
        let edges = join(self.edges.iter().flatten().map(|(u, v)| format!("{u}-{v}")));
        format!("b={blockers};e={edges};s={}", self.spread)
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

fn vertex_list(value: &str) -> Result<Vec<u32>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad vertex {v:?}")))
        .collect()
}

fn edge_list(value: &str) -> Result<Vec<(u32, u32)>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|e| {
            let (u, v) = e.split_once('-').ok_or(format!("bad edge {e:?}"))?;
            Ok((
                u.parse().map_err(|_| format!("bad edge {e:?}"))?,
                v.parse().map_err(|_| format!("bad edge {e:?}"))?,
            ))
        })
        .collect()
}

/// Reads the fields of an `OK blockers=…` reply into an [`Answer`].
pub fn parse_answer(reply: &Reply) -> Result<Answer, String> {
    let need = |key: &str| reply.field(key).ok_or(format!("QUERY reply lacks {key}="));
    let num = |key: &str| -> Result<u64, String> {
        need(key)?
            .parse()
            .map_err(|_| format!("QUERY reply has unparsable {key}="))
    };
    let spread = need("spread")?.to_string();
    if spread != "nan" && spread.parse::<f64>().map_or(true, |s| !s.is_finite()) {
        return Err(format!("unparsable spread={spread}"));
    }
    let cached = match need("cached")? {
        "true" => true,
        "false" => false,
        other => return Err(format!("bad cached={other}")),
    };
    let trace = match reply.field("trace_id") {
        None => None,
        Some(id) => {
            let phases = match need("phases")? {
                "none" => Vec::new(),
                list => list
                    .split(',')
                    .map(|p| {
                        let (name, us) = p.split_once(':').ok_or(format!("bad phase {p:?}"))?;
                        let us = us.parse().map_err(|_| format!("bad phase {p:?}"))?;
                        Ok((name.to_string(), us))
                    })
                    .collect::<Result<_, String>>()?,
            };
            Some(QueryTrace {
                trace_id: id.parse().map_err(|_| format!("bad trace_id={id}"))?,
                disposition: need("disposition")?.to_string(),
                phases,
            })
        }
    };
    Ok(Answer {
        blockers: vertex_list(need("blockers")?)?,
        edges: reply.field("edges").map(edge_list).transpose()?,
        spread,
        cached,
        rounds: num("rounds")?,
        samples: num("samples")?,
        elapsed_us: num("elapsed_us")?,
        trace,
    })
}

/// What a question asked, for checking its answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Asked<'a> {
    pub seeds: &'a [u32],
    pub budget: usize,
    pub edge_family: bool,
}

/// Checks an answer against the question: at most `budget` choices, no
/// seed among the blockers, `edges=` only (and always) on edge questions,
/// no repeated choice, and a finite non-negative spread.
pub fn check_answer(asked: Asked<'_>, answer: &Answer) -> Result<(), String> {
    let chosen = if asked.edge_family {
        if !answer.blockers.is_empty() {
            return Err("edge question answered with blockers".into());
        }
        let edges = answer
            .edges
            .as_ref()
            .ok_or("edge question answered without edges=")?;
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != edges.len() {
            return Err("repeated edge in selection".into());
        }
        edges.len()
    } else {
        if answer.edges.is_some() {
            return Err("edges= on a non-edge question".into());
        }
        if let Some(seed) = answer.blockers.iter().find(|b| asked.seeds.contains(b)) {
            return Err(format!("seed {seed} selected as a blocker"));
        }
        let mut sorted = answer.blockers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != answer.blockers.len() {
            return Err("repeated blocker in selection".into());
        }
        answer.blockers.len()
    };
    if chosen > asked.budget {
        return Err(format!("{chosen} choices over budget {}", asked.budget));
    }
    let spread = answer.spread_value();
    if !(spread.is_finite() && spread >= 0.0) {
        return Err(format!("spread={} is not a finite residual", answer.spread));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(line: &str) -> Reply {
        parse_reply(line).expect("reply parses")
    }

    #[test]
    fn parses_every_documented_shape() {
        let load = ok("OK n=5000 m=39980");
        assert_eq!(load.field("m"), Some("39980"));
        let pool = ok(
            "OK theta=2000 seed=7 build_ms=380 bytes=105544000 live_edges=9993097 \
                       source=built backend=forward",
        );
        assert_eq!(pool.field("live_edges"), Some("9993097"));
        let sketch = ok(
            "OK theta=100000 seed=3 build_ms=134 bytes=15883360 members=892709 \
                         avg_size=8.93 source=resident backend=sketch",
        );
        assert_eq!(sketch.field("avg_size"), Some("8.93"));
        let save =
            ok("OK path=/tmp/s.snap bytes=405242044 theta=1000 fingerprint=c5c8f231c6324c51");
        assert_eq!(save.field("fingerprint"), Some("c5c8f231c6324c51"));
        let restore = ok(
            "OK n=50000 m=399980 theta=1000 seed=9 bytes=400036628 restore_ms=22 \
                          mode=map arena=mmap-raw",
        );
        assert_eq!(restore.field("arena"), Some("mmap-raw"));
        let compress = ok("OK theta=1000 bytes=50 ratio=0.1260 arena=compressed compress_ms=9");
        assert_eq!(compress.field("ratio"), Some("0.1260"));
        let stats = ok(
            "OK graph=pa(n=50,m0=4,seed=1)/WC n=50 m=196 theta=0 pool_seed=0 \
                        pool_source=none queries=3 cache_hits=1",
        );
        assert_eq!(stats.field("graph"), Some("pa(n=50,m0=4,seed=1)/WC"));
        // METRICS announces how many exposition lines follow.
        assert_eq!(ok("OK lines=42").field("lines"), Some("42"));
        for (line, word) in [("OK pong", "pong"), ("OK bye", "bye")] {
            match ok(line) {
                Reply::Ok { words, fields } => {
                    assert_eq!(words, vec![word.to_string()]);
                    assert!(fields.is_empty());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parses_errors_and_busy() {
        assert_eq!(
            ok("ERR busy retry_after_ms=37"),
            Reply::Err {
                reason: "busy retry_after_ms=37".into(),
                busy_retry_ms: Some(37)
            }
        );
        for line in [
            "ERR no graph loaded (send LOAD first)",
            "ERR no sample pool built (send POOL first)",
            "ERR intervention unsupported: 'edge' requests cannot run with algorithm 'degree' \
             on the forward backend (see docs/protocol.md for the support matrix)",
            "ERR internal: boom",
            "ERR empty request",
        ] {
            match ok(line) {
                Reply::Err { busy_retry_ms, .. } => assert_eq!(busy_retry_ms, None),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse_reply("ERR busy retry_after_ms=soon").is_err());
        assert!(parse_reply("HELLO").is_err());
        assert!(parse_reply("OKAY n=1").is_err());
        assert!(parse_reply("OK =3").is_err());
        assert!(parse_reply("").is_err());
    }

    #[test]
    fn parses_vertex_edge_prebunk_and_traced_answers() {
        let vertex = parse_answer(&ok(
            "OK blockers=1,2,46 spread=68.847000 cached=false rounds=3 samples=6000 elapsed_us=223",
        ))
        .unwrap();
        assert_eq!(vertex.blockers, vec![1, 2, 46]);
        assert_eq!(vertex.edges, None);
        assert_eq!(vertex.canonical(), "b=1,2,46;e=;s=68.847000");
        assert!(vertex.trace.is_none());

        let edge = parse_answer(&ok(
            "OK blockers= edges=100-940,100-11482 spread=85.724000 cached=true rounds=2 \
             samples=2000 elapsed_us=1",
        ))
        .unwrap();
        assert!(edge.blockers.is_empty());
        assert_eq!(edge.edges, Some(vec![(100, 940), (100, 11482)]));
        assert!(edge.cached);
        assert_eq!(edge.canonical(), "b=;e=100-940,100-11482;s=85.724000");

        let traced = parse_answer(&ok(
            "OK blockers=0,18102 spread=98.479000 cached=false rounds=2 samples=3000 \
             elapsed_us=2240788 trace_id=5 disposition=computed \
             phases=clone:0,probe:1,decode:293,bfs:11,cover:0",
        ))
        .unwrap();
        let trace = traced.trace.clone().unwrap();
        assert_eq!(trace.trace_id, 5);
        assert_eq!(trace.disposition, "computed");
        assert_eq!(trace.phases[2], ("decode".to_string(), 293));
        // Trace fields, timing and cache state never reach the digest.
        let mut untraced = traced.clone();
        untraced.trace = None;
        untraced.elapsed_us = 1;
        untraced.cached = true;
        assert_eq!(traced.canonical(), untraced.canonical());

        let dark = parse_answer(&ok(
            "OK blockers= spread=nan cached=false rounds=0 samples=0 elapsed_us=3 trace_id=9 \
             disposition=coalesced phases=none",
        ))
        .unwrap();
        assert!(dark.trace.as_ref().unwrap().phases.is_empty());
        assert!(dark.spread_value().is_nan());

        for bad in [
            "OK blockers=1 cached=false rounds=1 samples=1 elapsed_us=1",
            "OK blockers=x spread=1.0 cached=false rounds=1 samples=1 elapsed_us=1",
            "OK blockers=1 spread=inf cached=false rounds=1 samples=1 elapsed_us=1",
            "OK blockers=1 edges=1+2 spread=1.0 cached=false rounds=1 samples=1 elapsed_us=1",
            "OK blockers=1 spread=1.0 cached=maybe rounds=1 samples=1 elapsed_us=1",
        ] {
            assert!(parse_answer(&ok(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn checks_answers_against_questions() {
        let seeds = [5, 9];
        let vertex = Asked {
            seeds: &seeds,
            budget: 2,
            edge_family: false,
        };
        let edge = Asked {
            edge_family: true,
            ..vertex
        };
        let answer = |blockers: Vec<u32>, edges: Option<Vec<(u32, u32)>>| Answer {
            blockers,
            edges,
            spread: "3.500000".into(),
            ..Answer::default()
        };
        assert!(check_answer(vertex, &answer(vec![1, 2], None)).is_ok());
        assert!(check_answer(vertex, &answer(vec![1, 2, 3], None)).is_err());
        assert!(check_answer(vertex, &answer(vec![1, 9], None)).is_err());
        assert!(check_answer(vertex, &answer(vec![1, 1], None)).is_err());
        assert!(check_answer(vertex, &answer(vec![1], Some(vec![(5, 1)]))).is_err());
        assert!(check_answer(edge, &answer(vec![], Some(vec![(5, 1), (9, 2)]))).is_ok());
        assert!(check_answer(edge, &answer(vec![], None)).is_err());
        assert!(check_answer(edge, &answer(vec![3], Some(vec![(5, 1)]))).is_err());
        assert!(check_answer(edge, &answer(vec![], Some(vec![(5, 1), (5, 1)]))).is_err());
        let mut nan = answer(vec![1], None);
        nan.spread = "nan".into();
        assert!(check_answer(vertex, &nan).is_err());
    }
}
