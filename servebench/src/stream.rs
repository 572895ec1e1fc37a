//! Seeded request streams for the three workloads.
//!
//! Every request is one protocol line built from an SSB template: the 13
//! queries of [`qppt_ssb::queries`] with their constants replaced by
//! SSB-qgen-style substitution parameters drawn from a seeded PRNG, and
//! rendered with [`qppt_query::print`]. Only constants change, so every
//! instantiation reads the same columns as its template and runs on the
//! indexes the server prepared at start-up.
//!
//! * `adhoc` — fresh instantiations. Each client owns a disjoint slice
//!   of the text space (text hash modulo the client count) and never
//!   repeats itself, so almost no two requests of a run are equal.
//! * `dashboard` — a Zipf(1) draw over a fixed pool of 64 requests: the 13
//!   aliases (`RUN q1.1` …) and 51 `QUERY` instantiations. Rank `r` holds
//!   template `r mod 13`. The pool is the same for every seed (a
//!   dashboard's panels do not change); the seed picks the draw order.
//! * `routed` — 80% dashboard draws, 20% fresh adhoc texts (every fifth
//!   request of each client).

use std::collections::HashSet;

use qppt_ssb::{queries, NATIONS, REGIONS};
use qppt_storage::{Predicate, QuerySpec, Value};

/// Number of requests in the dashboard pool.
pub const POOL_SIZE: usize = 64;

/// Every `ROUTED_FRESH_EVERY`-th routed request is a fresh text, the
/// rest are pool draws: an exact 80/20 mix, so the share of expensive
/// scatters does not vary from run to run.
pub const ROUTED_FRESH_EVERY: u64 = 5;

/// The workloads the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Adhoc,
    Dashboard,
    Routed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "adhoc" => Some(Self::Adhoc),
            "dashboard" => Some(Self::Dashboard),
            "routed" => Some(Self::Routed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Adhoc => "adhoc",
            Self::Dashboard => "dashboard",
            Self::Routed => "routed",
        }
    }
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// FNV-1a over bytes — the request-text and response digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The protocol line sent to the server (`RUN q2.3` or `QUERY …`).
    pub line: String,
    /// Hash of `line`: what repeat detection and correctness lookups key on.
    pub key: u64,
    /// Template index into [`queries::all_queries`] (0..13).
    pub template: usize,
    /// Position in the dashboard pool, or `None` for a fresh text.
    pub pool_idx: Option<usize>,
}

impl Request {
    fn new(line: String, template: usize, pool_idx: Option<usize>) -> Self {
        Self {
            key: fnv64(line.as_bytes()),
            line,
            template,
            pool_idx,
        }
    }
}

/// The SSB flight (1..=4) of template `t`.
pub fn flight_of(t: usize) -> usize {
    match t {
        0..=2 => 1,
        3..=5 => 2,
        6..=9 => 3,
        _ => 4,
    }
}

fn year(rng: &mut Rng) -> i64 {
    rng.range(1992, 1998)
}

fn region(rng: &mut Rng) -> Value {
    let region: &&str = rng.pick(&REGIONS[..]);
    Value::str(region)
}

fn nation(rng: &mut Rng) -> &'static str {
    rng.pick(&NATIONS[..]).0
}

fn category(rng: &mut Rng) -> String {
    format!("MFGR#{}{}", rng.range(1, 5), rng.range(1, 5))
}

fn category_value(rng: &mut Rng) -> Value {
    Value::Str(category(rng))
}

/// Two distinct cities of one nation, as SSB Q3.3/Q3.4 pick them.
fn city_pair(rng: &mut Rng) -> Vec<Value> {
    let n = nation(rng);
    let a = rng.below(10);
    let b = (a + 1 + rng.below(9)) % 10;
    vec![
        Value::Str(qppt_ssb::gen::city_name(n, a)),
        Value::Str(qppt_ssb::gen::city_name(n, b)),
    ]
}

/// Two distinct years, ascending.
fn year_pair(rng: &mut Rng) -> Vec<Value> {
    let a = rng.range(1992, 1997);
    let b = rng.range(a + 1, 1998);
    vec![Value::Int(a), Value::Int(b)]
}

fn year_span(rng: &mut Rng) -> Predicate {
    let lo = rng.range(1992, 1997);
    Predicate::between("d_year", lo, rng.range(lo, 1998))
}

fn mfgr_pair(rng: &mut Rng) -> Predicate {
    let a = rng.range(1, 4);
    let b = rng.range(a + 1, 5);
    Predicate::is_in(
        "p_mfgr",
        vec![
            Value::Str(format!("MFGR#{a}")),
            Value::Str(format!("MFGR#{b}")),
        ],
    )
}

fn discount(rng: &mut Rng) -> Predicate {
    let d = rng.range(0, 8);
    Predicate::between("lo_discount", d, d + 2)
}

fn quantity_band(rng: &mut Rng) -> Predicate {
    let q = rng.range(1, 41);
    Predicate::between("lo_quantity", q, q + 9)
}

/// Template `t` with fresh substitution parameters. The predicate
/// columns, joins, carried columns, grouping and ordering stay the
/// template's own; only the constants change.
pub fn instantiate(t: usize, rng: &mut Rng) -> QuerySpec {
    let mut s = queries::all_queries().swap_remove(t);
    let d = &mut s.dims;
    match t {
        // Q1.1: year, discount band, quantity ceiling.
        0 => {
            d[0].predicates = vec![Predicate::eq("d_year", year(rng))];
            s.fact_predicates = vec![
                discount(rng),
                Predicate::lt("lo_quantity", rng.range(20, 30)),
            ];
        }
        // Q1.2: year-month, discount band, quantity band.
        1 => {
            let ym = year(rng) * 100 + rng.range(1, 12);
            d[0].predicates = vec![Predicate::eq("d_yearmonthnum", ym)];
            s.fact_predicates = vec![discount(rng), quantity_band(rng)];
        }
        // Q1.3: week of a year, discount band, quantity band.
        2 => {
            d[0].predicates = vec![
                Predicate::eq("d_weeknuminyear", rng.range(1, 52)),
                Predicate::eq("d_year", year(rng)),
            ];
            s.fact_predicates = vec![discount(rng), quantity_band(rng)];
        }
        // Q2.1: part category, supplier region.
        3 => {
            d[0].predicates = vec![Predicate::eq("p_category", category_value(rng))];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
        }
        // Q2.2: a band of eight brands within one category.
        4 => {
            let c = category(rng);
            let b = rng.range(10, 33);
            d[0].predicates = vec![Predicate::between(
                "p_brand1",
                format!("{c}{b}").as_str(),
                format!("{c}{}", b + 7).as_str(),
            )];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
        }
        // Q2.3: one brand.
        5 => {
            let brand = format!("{}{}", category(rng), rng.range(1, 40));
            d[0].predicates = vec![Predicate::eq("p_brand1", brand.as_str())];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
        }
        // Q3.1: customer and supplier region, year span.
        6 => {
            d[0].predicates = vec![Predicate::eq("c_region", region(rng))];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
            d[2].predicates = vec![year_span(rng)];
        }
        // Q3.2: customer and supplier nation, year span.
        7 => {
            d[0].predicates = vec![Predicate::eq("c_nation", Value::str(nation(rng)))];
            d[1].predicates = vec![Predicate::eq("s_nation", Value::str(nation(rng)))];
            d[2].predicates = vec![year_span(rng)];
        }
        // Q3.3: two cities on each side, year span.
        8 => {
            d[0].predicates = vec![Predicate::is_in("c_city", city_pair(rng))];
            d[1].predicates = vec![Predicate::is_in("s_city", city_pair(rng))];
            d[2].predicates = vec![year_span(rng)];
        }
        // Q3.4: two cities on each side, one month.
        9 => {
            const MONTHS: [&str; 12] = [
                "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
            ];
            let ym = format!("{}{}", rng.pick(&MONTHS[..]), year(rng));
            d[0].predicates = vec![Predicate::is_in("c_city", city_pair(rng))];
            d[1].predicates = vec![Predicate::is_in("s_city", city_pair(rng))];
            d[2].predicates = vec![Predicate::eq("d_yearmonth", ym.as_str())];
        }
        // Q4.1: customer and supplier region, two manufacturers.
        10 => {
            d[0].predicates = vec![Predicate::eq("c_region", region(rng))];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
            d[2].predicates = vec![mfgr_pair(rng)];
        }
        // Q4.2: Q4.1 plus two years.
        11 => {
            d[0].predicates = vec![Predicate::eq("c_region", region(rng))];
            d[1].predicates = vec![Predicate::eq("s_region", region(rng))];
            d[2].predicates = vec![mfgr_pair(rng)];
            d[3].predicates = vec![Predicate::is_in("d_year", year_pair(rng))];
        }
        // Q4.3: supplier nation, part category, customer region, two years.
        12 => {
            d[0].predicates = vec![Predicate::eq("s_nation", Value::str(nation(rng)))];
            d[1].predicates = vec![Predicate::eq("p_category", category_value(rng))];
            d[2].predicates = vec![Predicate::eq("c_region", region(rng))];
            d[3].predicates = vec![Predicate::is_in("d_year", year_pair(rng))];
        }
        _ => panic!("SSB has 13 templates, not {}", t + 1),
    }
    s
}

/// The `QUERY` line of `spec`.
pub fn query_line(spec: &QuerySpec) -> String {
    format!("QUERY {}", qppt_query::print(spec))
}

/// Seed of the dashboard pool's instantiations. A dashboard's panels are
/// fixed; `--seed` varies the data and the order they are requested in.
const POOL_SEED: u64 = 0xda5b_0a2d;

/// The dashboard pool: rank `r` holds template `r mod 13`; ranks 0..13
/// are the aliases, the rest distinct instantiations.
pub fn dashboard_pool() -> Vec<Request> {
    let mut rng = Rng::new(POOL_SEED);
    let names: Vec<String> = queries::all_queries()
        .iter()
        .map(|q| q.id.to_ascii_lowercase())
        .collect();
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL_SIZE);
    for r in 0..POOL_SIZE {
        let t = r % names.len();
        let req = if r < names.len() {
            Request::new(format!("RUN {}", names[t]), t, Some(r))
        } else {
            loop {
                let req = Request::new(query_line(&instantiate(t, &mut rng)), t, Some(r));
                if seen.insert(req.key) {
                    break req;
                }
            }
        };
        pool.push(req);
    }
    pool
}

/// Zipf(1) over `n` ranks by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One client's endless request stream. Fully determined by
/// `(workload, seed, client, clients)`.
#[derive(Debug, Clone)]
pub struct ClientStream {
    workload: Workload,
    rng: Rng,
    pool: Vec<Request>,
    zipf: Zipf,
    client: u64,
    clients: u64,
    /// Keys this client already produced as fresh texts, plus the pool's.
    used: HashSet<u64>,
    next_template: usize,
    /// Requests produced so far.
    sent: u64,
}

/// Draws per template before a fresh-text search moves on to the next
/// template (small templates run out of unused constants).
const FRESH_ATTEMPTS: usize = 64;

impl ClientStream {
    pub fn new(workload: Workload, seed: u64, client: usize, clients: usize) -> Self {
        let pool = dashboard_pool();
        let used = pool.iter().map(|r| r.key).collect();
        let mut rng = Rng::new(seed ^ 0x5eed_c11e_u64.wrapping_mul(client as u64 + 1));
        let next_template = rng.below(13) as usize;
        Self {
            workload,
            rng,
            pool,
            zipf: Zipf::new(POOL_SIZE),
            client: client as u64,
            clients: clients.max(1) as u64,
            used,
            next_template,
            sent: 0,
        }
    }

    /// The dashboard pool this stream draws from.
    pub fn pool(&self) -> &[Request] {
        &self.pool
    }

    fn pool_draw(&mut self) -> Request {
        let r = self.zipf.draw(&mut self.rng);
        self.pool[r].clone()
    }

    /// A text this client has never produced, in this client's slice of
    /// the text space. Templates rotate so the flights stay balanced.
    fn fresh(&mut self) -> Request {
        for _ in 0..13 {
            let t = self.next_template;
            self.next_template = (t + 1) % 13;
            for _ in 0..FRESH_ATTEMPTS * self.clients as usize {
                let req = Request::new(query_line(&instantiate(t, &mut self.rng)), t, None);
                if req.key % self.clients == self.client && self.used.insert(req.key) {
                    return req;
                }
            }
        }
        panic!("every template's parameter space is exhausted for this client");
    }

    pub fn next_request(&mut self) -> Request {
        match self.workload {
            Workload::Adhoc => self.fresh(),
            Workload::Dashboard => self.pool_draw(),
            Workload::Routed => {
                self.sent += 1;
                if self.sent.is_multiple_of(ROUTED_FRESH_EVERY) {
                    self.fresh()
                } else {
                    self.pool_draw()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_core::{prepare_indexes, validate, PlanOptions};

    #[test]
    fn every_instantiation_validates_and_round_trips() {
        let opts = PlanOptions::default();
        let mut ssb = qppt_ssb::SsbDb::generate(0.01, 7);
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &opts).expect("SSB prepares");
        }
        let mut rng = Rng::new(11);
        for t in 0..13 {
            for _ in 0..40 {
                let spec = instantiate(t, &mut rng);
                validate(&ssb.db, &spec, &opts)
                    .unwrap_or_else(|e| panic!("template {t}: {e}: {}", qppt_query::print(&spec)));
                let text = qppt_query::print(&spec);
                assert_eq!(qppt_query::parse(&text).expect("parses"), spec);
            }
        }
        for req in dashboard_pool() {
            if let Some(text) = req.line.strip_prefix("QUERY ") {
                let spec = qppt_query::parse(text).expect("pool text parses");
                validate(&ssb.db, &spec, &opts).expect("pool spec validates");
            }
        }
    }

    #[test]
    fn same_seed_same_client_stream() {
        for w in [Workload::Adhoc, Workload::Dashboard, Workload::Routed] {
            let take = |seed, client| {
                let mut s = ClientStream::new(w, seed, client, 2);
                (0..200).map(|_| s.next_request()).collect::<Vec<_>>()
            };
            assert_eq!(take(5, 0), take(5, 0), "{w:?}");
            assert_ne!(take(5, 0), take(5, 1), "{w:?}");
            assert_ne!(take(5, 0), take(6, 0), "{w:?}");
        }
    }

    #[test]
    fn adhoc_clients_never_overlap_and_never_repeat() {
        let mut seen = HashSet::new();
        for client in 0..3 {
            let mut s = ClientStream::new(Workload::Adhoc, 9, client, 3);
            for _ in 0..600 {
                assert!(seen.insert(s.next_request().key));
            }
        }
    }

    #[test]
    fn pool_is_stratified_by_template() {
        let pool = dashboard_pool();
        assert_eq!(pool.len(), POOL_SIZE);
        let distinct: HashSet<u64> = pool.iter().map(|r| r.key).collect();
        assert_eq!(distinct.len(), POOL_SIZE);
        for (r, req) in pool.iter().enumerate() {
            assert_eq!(req.template, r % 13);
        }
    }

    #[test]
    fn routed_mix_is_four_to_one() {
        let mut s = ClientStream::new(Workload::Routed, 2, 0, 1);
        let from_pool = (0..5000)
            .filter(|_| s.next_request().pool_idx.is_some())
            .count();
        assert_eq!(from_pool, 4000);
    }
}
