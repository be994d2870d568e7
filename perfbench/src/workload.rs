//! The four workloads: their server set-up and their operation schedules,
//! all drawn from the workload seed. The server only ever sees the plain
//! protocol lines built here.

use crate::reply::Asked;
use imin_core::{AlgorithmKind, Intervention};
use imin_graph::{generators, DiGraph, VertexId};
use std::collections::HashSet;

/// Vertices of the generated graph (`LOAD pa n=…`).
pub const GRAPH_N: usize = 50_000;
/// Edges attached per new vertex (`m0=…`).
pub const GRAPH_M0: usize = 4;

/// The workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "vertex-distinct",
    "intervention-distinct",
    "sketch-hot",
    "restart",
];

/// Which snapshot restore a `RESTORE` operation asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreKind {
    Copy,
    Map,
}

impl RestoreKind {
    pub fn label(self) -> &'static str {
        match self {
            RestoreKind::Copy => "copy",
            RestoreKind::Map => "map",
        }
    }
}

/// One step of a schedule. Writes (`Rebuild`, `Restore`) are barriers:
/// every earlier step finishes before a write starts, and no later step
/// starts before it ends, so each question meets a known pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Ask question number `qid`.
    Query(u32),
    /// `POOL <θ_r> <seed> backend=sketch` under a new seed.
    Rebuild(u64),
    /// `RESTORE <snapshot> mode=…`.
    Restore(RestoreKind),
}

/// A containment question.
#[derive(Clone, Debug, PartialEq)]
pub struct Question {
    pub seeds: [u32; 2],
    pub budget: usize,
    pub alg: &'static str,
    /// `intervene=` value, `None` for the default vertex family.
    pub intervene: Option<&'static str>,
}

impl Question {
    /// The `QUERY` request line.
    pub fn line(&self, trace: bool) -> String {
        let mut line = format!(
            "QUERY ic seeds={},{} budget={} alg={}",
            self.seeds[0], self.seeds[1], self.budget, self.alg
        );
        if let Some(family) = self.intervene {
            line.push_str(" intervene=");
            line.push_str(family);
        }
        if trace {
            line.push_str(" trace=1");
        }
        line
    }

    pub fn asked(&self) -> Asked<'_> {
        Asked {
            seeds: &self.seeds,
            budget: self.budget,
            edge_family: self.intervene == Some("edge"),
        }
    }

    pub fn algorithm(&self) -> AlgorithmKind {
        self.alg
            .parse()
            .expect("workload algorithms are registered")
    }

    pub fn intervention(&self) -> Intervention {
        self.intervene
            .unwrap_or("vertex")
            .parse()
            .expect("workload interventions are valid")
    }

    pub fn seed_vertices(&self) -> Vec<VertexId> {
        self.seeds
            .iter()
            .map(|&v| VertexId::new(v as usize))
            .collect()
    }

    /// Which per-layer family the question exercises.
    pub fn kind(&self) -> &'static str {
        match self.intervene {
            Some("edge") => "edge",
            Some(_) => "prebunk",
            None => self.alg,
        }
    }
}

/// The fixed shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Forward pool θ, if the workload keeps one resident.
    pub forward_theta: Option<usize>,
    /// Sketch pool θ_r, if the workload keeps one resident.
    pub sketch_theta: Option<usize>,
    /// Whether set-up ends with `SAVE` (the snapshot the restarts read).
    pub save: bool,
    /// Length of the check prefix: every run completes these first
    /// operations, whatever `--seconds` says, and the answers digest and
    /// `mean_spread` cover exactly them. The traced run replays them.
    pub check_ops: usize,
    /// Upper bound on the operations one second of a run can use.
    pub ops_per_second: usize,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "vertex-distinct" => Spec {
                name: "vertex-distinct",
                forward_theta: Some(200),
                sketch_theta: None,
                save: false,
                check_ops: 128,
                ops_per_second: 400,
            },
            "intervention-distinct" => Spec {
                name: "intervention-distinct",
                forward_theta: Some(100),
                sketch_theta: None,
                save: false,
                check_ops: 128,
                ops_per_second: 200,
            },
            "sketch-hot" => Spec {
                name: "sketch-hot",
                forward_theta: None,
                sketch_theta: Some(100_000),
                save: false,
                check_ops: 20_000,
                ops_per_second: 40_000,
            },
            "restart" => Spec {
                name: "restart",
                forward_theta: Some(200),
                sketch_theta: None,
                save: true,
                check_ops: 172,
                ops_per_second: 400,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn load_line(&self, seed: u64) -> String {
        format!("LOAD pa n={GRAPH_N} m0={GRAPH_M0} seed={seed} model=wc")
    }
}

/// Share of `sketch-hot` requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.7;
/// Size of the `sketch-hot` hot set.
pub const HOT_SET: usize = 64;
/// Zipf exponent over the hot set's ranks.
pub const ZIPF_S: f64 = 1.0;
/// `sketch-hot` rebuilds its sketch pool after every this many requests.
pub const REBUILD_EVERY: usize = 10_000;
/// Distinct questions asked after each `restart` restore.
pub const QUESTIONS_PER_RESTART: usize = 3;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A seed derived from the workload seed for one purpose (`stream`).
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// The pool seed every `POOL` of a workload uses.
pub fn pool_seed(seed: u64) -> u64 {
    derive(seed, 1) >> 1
}

/// The topology `LOAD pa …` generates — the same call the server makes —
/// before the cascade model is applied.
pub fn topology(seed: u64) -> DiGraph {
    generators::preferential_attachment(GRAPH_N, GRAPH_M0, true, 1.0, seed)
        .expect("valid generator parameters")
}

/// Strata of degree mass, and questions per stratified block (see
/// [`PairSampler`]).
pub const STRATA: usize = 128;

/// Draws distinct two-vertex seed sets, each vertex degree-weighted.
///
/// The draw is stratified to keep runs comparable across seeds: vertices
/// are laid out by descending degree and the degree mass is cut into
/// [`STRATA`] equal strata. Each block of [`STRATA`] pairs takes its first
/// vertex once from every stratum, in bit-reversed order under a random
/// rotation, so that every prefix of a block spreads evenly over the
/// strata; its second vertex also comes once from every stratum, in random
/// order. Each vertex is still drawn with probability proportional to its
/// degree, but every run holds nearly the same mix of hub and leaf seeds,
/// so per-run means and percentiles vary far less with the seed than
/// under independent draws.
pub struct PairSampler {
    /// Vertices by descending degree.
    order: Vec<u32>,
    /// Running degree mass along `order`.
    cumulative: Vec<u64>,
    rng: Rng,
    seen: HashSet<[u32; 2]>,
    /// Stratum pairs left in the current block, last first.
    slots: Vec<(usize, usize)>,
}

/// `j` with its low `log2(STRATA)` bits reversed.
fn bit_reversed(j: usize) -> usize {
    let bits = STRATA.trailing_zeros();
    j.reverse_bits() >> (usize::BITS - bits)
}

impl PairSampler {
    pub fn new(graph: &DiGraph, rng: Rng) -> PairSampler {
        let degree = |v: u32| {
            let v = VertexId::new(v as usize);
            (graph.out_degree(v) + graph.in_degree(v)) as u64
        };
        let mut order: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
        let mut total = 0u64;
        let cumulative = order
            .iter()
            .map(|&v| {
                total += degree(v);
                total
            })
            .collect();
        PairSampler {
            order,
            cumulative,
            rng,
            seen: HashSet::new(),
            slots: Vec::new(),
        }
    }

    /// A degree-weighted vertex from stratum `s`.
    fn vertex_in(&mut self, s: usize) -> u32 {
        let total = *self.cumulative.last().expect("non-empty graph") as u128;
        let lo = (total * s as u128 / STRATA as u128) as u64;
        let hi = (total * (s as u128 + 1) / STRATA as u128) as u64;
        let r = lo + self.rng.below((hi - lo).max(1));
        self.order[self.cumulative.partition_point(|&c| c <= r)]
    }

    fn shuffled(&mut self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..STRATA).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// The next seed pair never drawn before (sorted).
    pub fn next_pair(&mut self) -> [u32; 2] {
        if self.slots.is_empty() {
            let rotation = self.rng.below(STRATA as u64) as usize;
            let first = (0..STRATA).map(|j| (bit_reversed(j) + rotation) % STRATA);
            self.slots = first.zip(self.shuffled()).rev().collect();
        }
        let (su, sv) = self.slots.pop().expect("block refilled");
        for attempt in 0.. {
            // A stratum of one or two hubs may have no fresh pair left:
            // after many tries, widen the draws to every stratum.
            let mut any = || self.rng.below(STRATA as u64) as usize;
            let sv = if attempt < 64 { sv } else { any() };
            let su = if attempt < 128 { su } else { any() };
            let (a, b) = (self.vertex_in(su), self.vertex_in(sv));
            if a == b {
                continue;
            }
            let pair = [a.min(b), a.max(b)];
            if self.seen.insert(pair) {
                return pair;
            }
        }
        unreachable!("the loop returns")
    }
}

/// A workload instance: its questions and its operation schedule.
pub struct Workload {
    pub spec: Spec,
    pub seed: u64,
    pub questions: Vec<Question>,
    pub ops: Vec<Op>,
}

impl Workload {
    /// Builds the schedule for `seed`, long enough for `seconds` of load
    /// (and never shorter than the check prefix). `graph` is the topology
    /// of [`topology`]`(seed)`.
    pub fn generate(spec: Spec, seed: u64, seconds: f64, graph: &DiGraph) -> Workload {
        let len = spec
            .check_ops
            .max((seconds.max(1.0) * spec.ops_per_second as f64) as usize);
        let mut pairs = PairSampler::new(graph, Rng::new(derive(seed, 2)));
        let mut rng = Rng::new(derive(seed, 3));
        let mut questions = Vec::new();
        let mut ops = Vec::with_capacity(len);
        let ask = |questions: &mut Vec<Question>, q: Question| {
            questions.push(q);
            Op::Query(questions.len() as u32 - 1)
        };
        match spec.name {
            "vertex-distinct" | "restart" => {
                let mut asked = 0usize;
                let mut restores = 0usize;
                while ops.len() < len {
                    if spec.name == "restart" && asked.is_multiple_of(QUESTIONS_PER_RESTART) {
                        let kind = if restores.is_multiple_of(2) {
                            RestoreKind::Copy
                        } else {
                            RestoreKind::Map
                        };
                        restores += 1;
                        ops.push(Op::Restore(kind));
                    }
                    let alg = if asked.is_multiple_of(2) {
                        "advanced"
                    } else {
                        "replace"
                    };
                    let q = Question {
                        seeds: pairs.next_pair(),
                        budget: 8,
                        alg,
                        intervene: None,
                    };
                    ops.push(ask(&mut questions, q));
                    asked += 1;
                }
            }
            "intervention-distinct" => {
                for i in 0..len {
                    let family = if i.is_multiple_of(2) {
                        "edge"
                    } else {
                        "prebunk:0.2"
                    };
                    let q = Question {
                        seeds: pairs.next_pair(),
                        budget: 2,
                        alg: "advanced",
                        intervene: Some(family),
                    };
                    ops.push(ask(&mut questions, q));
                }
            }
            "sketch-hot" => {
                let ris = |seeds| Question {
                    seeds,
                    budget: 8,
                    alg: "ris",
                    intervene: None,
                };
                for _ in 0..HOT_SET {
                    questions.push(ris(pairs.next_pair()));
                }
                let weights: Vec<f64> = (0..HOT_SET)
                    .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut cumulative = Vec::with_capacity(HOT_SET);
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cumulative.push(acc);
                }
                let mut requests = 0usize;
                let mut epoch = 0u64;
                while ops.len() < len {
                    if requests > 0 && requests.is_multiple_of(REBUILD_EVERY) {
                        epoch += 1;
                        ops.push(Op::Rebuild(derive(seed, 100 + epoch) >> 1));
                    }
                    if rng.unit() < HOT_SHARE {
                        let u = rng.unit();
                        let rank = cumulative.partition_point(|&c| c <= u).min(HOT_SET - 1);
                        ops.push(Op::Query(rank as u32));
                    } else {
                        ops.push(ask(&mut questions, ris(pairs.next_pair())));
                    }
                    requests += 1;
                }
            }
            other => unreachable!("unknown workload {other}"),
        }
        Workload {
            spec,
            seed,
            questions,
            ops,
        }
    }

    /// The sketch seed set-up uses (epoch 0).
    pub fn first_sketch_seed(&self) -> u64 {
        pool_seed(self.seed)
    }

    /// Set-up request lines, in order: `LOAD`, the pools, and `SAVE`.
    pub fn setup_lines(&self, snapshot: &str) -> Vec<String> {
        let mut lines = vec![self.spec.load_line(self.seed)];
        if let Some(theta) = self.spec.forward_theta {
            lines.push(format!("POOL {theta} {}", pool_seed(self.seed)));
        }
        if let Some(theta_r) = self.spec.sketch_theta {
            lines.push(format!(
                "POOL {theta_r} {} backend=sketch",
                self.first_sketch_seed()
            ));
        }
        if self.spec.save {
            lines.push(format!("SAVE {snapshot}"));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn pa(n: usize) -> DiGraph {
        generators::preferential_attachment(n, 3, true, 1.0, 4).expect("valid parameters")
    }

    #[test]
    fn pairs_are_distinct_and_degree_weighted() {
        let graph = pa(500);
        let mut sampler = PairSampler::new(&graph, Rng::new(7));
        let mut seen = HashSet::new();
        let mut degree_sum = 0usize;
        for _ in 0..400 {
            let pair = sampler.next_pair();
            assert!(pair[0] < pair[1]);
            assert!(seen.insert(pair), "pair {pair:?} repeated");
            for v in pair {
                let v = VertexId::new(v as usize);
                degree_sum += graph.out_degree(v) + graph.in_degree(v);
            }
        }
        // Degree-weighted draws favour hubs: their mean degree is far above
        // the graph's mean degree.
        let mean_graph = 2.0 * graph.num_edges() as f64 / graph.num_vertices() as f64;
        let mean_drawn = degree_sum as f64 / 800.0;
        assert!(
            mean_drawn > 1.5 * mean_graph,
            "{mean_drawn} vs {mean_graph}"
        );
    }

    #[test]
    fn bit_reversal_permutes_the_strata() {
        let mut seen: Vec<usize> = (0..STRATA).map(bit_reversed).collect();
        assert_eq!(&seen[..4], &[0, STRATA / 2, STRATA / 4, 3 * STRATA / 4]);
        seen.sort_unstable();
        assert_eq!(seen, (0..STRATA).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_blocks_hold_the_same_hub_mix() {
        let graph = pa(3000);
        let degree = |v: u32| {
            let v = VertexId::new(v as usize);
            (graph.out_degree(v) + graph.in_degree(v)) as f64
        };
        // Mean seed degree over one block, for several seeds.
        let means: Vec<f64> = (0..8)
            .map(|seed| {
                let mut sampler = PairSampler::new(&graph, Rng::new(seed));
                let total: f64 = (0..STRATA)
                    .map(|_| {
                        let [a, b] = sampler.next_pair();
                        degree(a) + degree(b)
                    })
                    .sum();
                total / (2 * STRATA) as f64
            })
            .collect();
        let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = means.iter().copied().fold(0.0, f64::max);
        assert!(hi / lo < 1.15, "block means {means:?}");
    }

    #[test]
    fn schedules_are_fixed_by_the_seed() {
        let graph = pa(500);
        let spec = Spec {
            check_ops: 50,
            ops_per_second: 10,
            ..Spec::by_name("restart").unwrap()
        };
        let a = Workload::generate(spec, 11, 1.0, &graph);
        let b = Workload::generate(spec, 11, 1.0, &graph);
        let c = Workload::generate(spec, 12, 1.0, &graph);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.questions, b.questions);
        assert_ne!(a.questions, c.questions);
        // restore copy, three questions, restore map, three questions, …
        assert_eq!(a.ops[0], Op::Restore(RestoreKind::Copy));
        assert_eq!(a.ops[4], Op::Restore(RestoreKind::Map));
        assert!(matches!(
            a.ops[1..4],
            [Op::Query(0), Op::Query(1), Op::Query(2)]
        ));
    }

    #[test]
    fn sketch_hot_mixes_hot_repeats_and_rebuilds() {
        let graph = pa(3000);
        let spec = Spec {
            check_ops: 12_000,
            ops_per_second: 1,
            ..Spec::by_name("sketch-hot").unwrap()
        };
        let w = Workload::generate(spec, 3, 1.0, &graph);
        let queries: Vec<u32> = w
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Query(q) => Some(*q),
                _ => None,
            })
            .collect();
        let rebuilds = w
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Rebuild(_)))
            .count();
        assert_eq!(rebuilds, (queries.len() - 1) / REBUILD_EVERY);
        let hot = queries.iter().filter(|&&q| (q as usize) < HOT_SET).count();
        let share = hot as f64 / queries.len() as f64;
        assert!((share - HOT_SHARE).abs() < 0.02, "hot share {share}");
        // Zipf: rank 0 is asked far more often than rank 63.
        let count = |r| queries.iter().filter(|&&q| q == r).count();
        assert!(count(0) > 10 * count(63).max(1));
        // Fresh questions are asked once each.
        let fresh: HashSet<u32> = queries
            .iter()
            .copied()
            .filter(|&q| q as usize >= HOT_SET)
            .collect();
        assert_eq!(fresh.len(), queries.len() - hot);
        assert!(w
            .questions
            .iter()
            .all(|q| q.line(false).ends_with("alg=ris")));
    }

    #[test]
    fn question_lines_follow_the_protocol() {
        let q = Question {
            seeds: [3, 17],
            budget: 2,
            alg: "advanced",
            intervene: Some("prebunk:0.2"),
        };
        assert_eq!(
            q.line(true),
            "QUERY ic seeds=3,17 budget=2 alg=advanced intervene=prebunk:0.2 trace=1"
        );
        assert_eq!(q.kind(), "prebunk");
        assert_eq!(q.algorithm(), AlgorithmKind::AdvancedGreedy);
        assert!(!q.asked().edge_family);
    }
}
