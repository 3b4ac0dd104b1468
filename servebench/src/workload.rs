//! Seeded inputs: the relations, the SSDL capability descriptions, the
//! query streams and the answer oracle.
//!
//! Every domain's members are mirrors of one relation, so the right
//! answer does not depend on which member the federation picks. The oracle
//! evaluates each condition from the structure the generator built; it
//! never goes through the program's own condition evaluator.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workloads, in the order the documentation lists them.
pub const NAMES: [&str; 3] = ["warm_repeat", "cold_shapes", "scan_heavy"];

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, (lo, hi): (i64, i64)) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// `k` distinct values below `n`, in random order.
    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// Column order of every generated relation (and of every answer row).
pub const COLUMNS: [&str; 6] = ["id", "mk", "md", "yr", "co", "pr"];
const ID: usize = 0;
const MAKE: usize = 1;
const MODEL: usize = 2;
const YEAR: usize = 3;
const COLOR: usize = 4;
const PRICE: usize = 5;

const MAKES: [&str; 10] =
    ["Toyota", "BMW", "Honda", "Ford", "Mercedes", "Chevrolet", "Audi", "Kia", "Mazda", "Volvo"];
const COLORS: [&str; 6] = ["red", "black", "blue", "white", "silver", "green"];
const MODELS: i64 = 50;

/// A dealer-style query form; each one is both an SSDL condition rule and
/// a disjunct template of the generated queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// `mk = $str ^ pr < $int`, exports every column.
    Price,
    /// `mk = $str ^ co = $str`, exports every column but `co`.
    Color,
    /// `mk = $str ^ yr > $int`, exports every column.
    Year,
}

/// One row; string columns hold an index into their value list.
type Row = [i64; 6];

/// One relation and the capability descriptions of its mirrors.
pub struct Domain {
    /// Appended to every column name but `id`, so each domain has its own
    /// attribute namespace and the capability index can prune the others.
    suffix: String,
    rows: Vec<Row>,
    mirrors: usize,
    /// The forms mirror `m` supports: `variants[m % variants.len()]`.
    variants: &'static [&'static [Form]],
}

impl Domain {
    fn generate(
        suffix: String,
        rows: usize,
        (makes, colors): (usize, usize),
        mirrors: usize,
        variants: &'static [&'static [Form]],
        rng: &mut Rng,
    ) -> Domain {
        let rows = (0..rows as i64)
            .map(|id| {
                [
                    id,
                    rng.below(makes) as i64,
                    rng.range((0, MODELS)),
                    rng.range((1990, 2020)),
                    rng.below(colors) as i64,
                    rng.range((1000, 60000)),
                ]
            })
            .collect();
        Domain { suffix, rows, mirrors, variants }
    }

    fn attr(&self, col: usize) -> String {
        if col == ID {
            COLUMNS[ID].to_string()
        } else {
            format!("{}{}", COLUMNS[col], self.suffix)
        }
    }

    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    fn csv(&self) -> String {
        let mut out = (0..COLUMNS.len()).map(|c| self.attr(c)).collect::<Vec<_>>().join(",");
        out.push('\n');
        let mut cell = String::new();
        for row in &self.rows {
            for col in 0..COLUMNS.len() {
                if col > 0 {
                    out.push(',');
                }
                cell.clear();
                value_text(row, col, &mut cell);
                out.push_str(&cell);
            }
            out.push('\n');
        }
        out
    }

    fn ssdl(&self, name: &str, mirror: usize) -> String {
        let forms = self.variants[mirror % self.variants.len()];
        let (mk, pr, co, yr) =
            (self.attr(MAKE), self.attr(PRICE), self.attr(COLOR), self.attr(YEAR));
        let all: Vec<String> = (0..COLUMNS.len()).map(|c| self.attr(c)).collect();
        let no_color: Vec<String> =
            (0..COLUMNS.len()).filter(|&c| c != COLOR).map(|c| self.attr(c)).collect();
        let mut rules = String::new();
        let mut exports = String::new();
        for (i, form) in forms.iter().enumerate() {
            let (rule, export) = match form {
                Form::Price => (format!("{mk} = $str ^ {pr} < $int"), &all),
                Form::Color => (format!("{mk} = $str ^ {co} = $str"), &no_color),
                Form::Year => (format!("{mk} = $str ^ {yr} > $int"), &all),
            };
            let _ = writeln!(rules, "  s{} -> {rule} ;", i + 1);
            let _ = writeln!(exports, "  attributes :: s{} : {{ {} }} ;", i + 1, export.join(", "));
        }
        format!("source {name} {{\n{rules}{exports}}}\n")
    }
}

/// Appends the text form of one cell: the CSV cell, and the value an
/// answer row carries (strings unquoted).
fn value_text(row: &Row, col: usize, out: &mut String) {
    let v = row[col];
    let _ = match col {
        MAKE => write!(out, "{}", MAKES[v as usize]),
        MODEL => write!(out, "m{v}"),
        COLOR => write!(out, "{}", COLORS[v as usize]),
        _ => write!(out, "{v}"),
    };
}

/// FNV-1a over the projected values of one row, each followed by 0x1f;
/// the client digests the rows it receives the same way.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn value(&mut self, v: &str) {
        for &b in v.as_bytes().iter().chain(&[0x1f]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One disjunct: `mk = <make> ^ <form's second atom>`.
#[derive(Debug, Clone, Copy)]
struct Disjunct {
    form: Form,
    make: i64,
    /// Price or year bound, or colour index.
    arg: i64,
}

impl Disjunct {
    fn matches(&self, row: &Row) -> bool {
        row[MAKE] == self.make
            && match self.form {
                Form::Price => row[PRICE] < self.arg,
                Form::Color => row[COLOR] == self.arg,
                Form::Year => row[YEAR] > self.arg,
            }
    }

    fn render(&self, d: &Domain) -> String {
        let mk = format!("{} = \"{}\"", d.attr(MAKE), MAKES[self.make as usize]);
        match self.form {
            Form::Price => format!("{mk} ^ {} < {}", d.attr(PRICE), self.arg),
            Form::Color => format!("{mk} ^ {} = \"{}\"", d.attr(COLOR), COLORS[self.arg as usize]),
            Form::Year => format!("{mk} ^ {} > {}", d.attr(YEAR), self.arg),
        }
    }
}

/// One generated query with its oracle answer.
pub struct Query {
    /// Condition text in the `csqp` syntax.
    pub cond: String,
    /// Projected attributes, in relation column order (answer rows carry
    /// them in this order).
    pub attrs: Vec<String>,
    pub limit: Option<u64>,
    /// The `/query` request target.
    pub path: String,
    /// The parameterized shape: attribute names, operators and
    /// connectives with the constants left out.
    pub shape: String,
    /// Digests of the oracle's answer rows.
    pub expected: HashSet<u64>,
}

impl Query {
    fn new(d: &Domain, disjuncts: &[Disjunct], cols: &[usize], limit: Option<u64>) -> Query {
        let cond = if disjuncts.len() == 1 {
            disjuncts[0].render(d)
        } else {
            disjuncts.iter().map(|x| format!("({})", x.render(d))).collect::<Vec<_>>().join(" _ ")
        };
        let attrs: Vec<String> = cols.iter().map(|&c| d.attr(c)).collect();
        let mut path = format!("/query?cond={}&attrs={}", urlencode(&cond), attrs.join(","));
        if let Some(n) = limit {
            let _ = write!(path, "&limit={n}");
        }
        let shape = format!(
            "{:?} -> {}",
            disjuncts.iter().map(|x| x.form).collect::<Vec<_>>(),
            attrs.join(",")
        );
        let shape = format!("{}{shape}", d.suffix);
        let mut expected = HashSet::new();
        let mut texts: Vec<String> = vec![String::new(); cols.len()];
        for row in d.rows.iter().filter(|r| disjuncts.iter().any(|x| x.matches(r))) {
            for (t, &c) in texts.iter_mut().zip(cols) {
                t.clear();
                value_text(row, c, t);
            }
            let mut d = Digest::new();
            texts.iter().for_each(|t| d.value(t));
            expected.insert(d.finish());
        }
        Query { cond, attrs, limit, path, shape, expected }
    }

    /// The number of rows a correct answer carries.
    pub fn expected_rows(&self) -> usize {
        match self.limit {
            Some(n) => self.expected.len().min(n as usize),
            None => self.expected.len(),
        }
    }
}

/// Percent-encodes a condition for the `cond=` parameter.
fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// A query shape: the disjunct forms, the projection, and the ranges its
/// constants are drawn from.
struct Shape {
    forms: Vec<Form>,
    cols: &'static [usize],
    /// Every disjunct names the same make, so the union overlaps and the
    /// executor must deduplicate.
    same_make: bool,
    price: (i64, i64),
    year: (i64, i64),
}

impl Shape {
    /// Draws constants for the shape. Constants of one type are distinct
    /// within a query, so no two slots of a prepared plan alias — except
    /// the shared make of a `same_make` shape, which every query repeats.
    fn draw(&self, makes: usize, colors: usize, rng: &mut Rng) -> Vec<Disjunct> {
        let n = self.forms.len();
        let picked = rng.distinct(n, makes);
        let colors_picked = rng.distinct(n.min(colors), colors);
        let mut ints = HashSet::new();
        self.forms
            .iter()
            .enumerate()
            .map(|(i, &form)| {
                let make = if self.same_make { picked[0] } else { picked[i] } as i64;
                let arg = match form {
                    Form::Color => colors_picked[i % colors_picked.len()] as i64,
                    Form::Price | Form::Year => loop {
                        let r = if form == Form::Price { self.price } else { self.year };
                        let v = rng.range(r);
                        if ints.insert(v) {
                            break v;
                        }
                    },
                };
                Disjunct { form, make, arg }
            })
            .collect()
    }
}

/// One workload: the federation's data and capabilities, the warm-up
/// queries and the timed stream.
pub struct Workload {
    pub name: &'static str,
    pub domains: Vec<Domain>,
    /// Sent once, in order, before the clock starts; the first one is the
    /// set-up probe.
    pub warmup: Vec<Query>,
    pub pool: Vec<Query>,
    /// `true`: the timed stream cycles through `pool`. `false`: it walks
    /// `pool` once, so no query (and no query shape) repeats.
    pub cycle: bool,
    /// The percentile reported as `latency_tail_ms`.
    pub tail_pct: f64,
    /// The most timed-stream queries the traced run replays after the
    /// warm-up.
    pub traced_queries: usize,
}

const LIMIT: Option<u64> = Some(10);
const ALL_FORMS: &[Form] = &[Form::Price, Form::Color, Form::Year];
const TWO_FORMS: &[&[Form]] = &[ALL_FORMS, &[Form::Price, Form::Color]];

impl Workload {
    pub fn members(&self) -> usize {
        self.domains.iter().map(|d| d.mirrors).sum()
    }

    /// The `i`-th query of the timed stream.
    pub fn stream(&self, i: usize) -> Option<&Query> {
        if self.cycle {
            self.pool.get(i % self.pool.len())
        } else {
            self.pool.get(i)
        }
    }

    /// Writes one CSV per domain and one SSDL file per member under `dir`
    /// and returns the `(ssdl, csv)` pairs in member order.
    pub fn write_files(&self, dir: &Path) -> std::io::Result<Vec<(PathBuf, PathBuf)>> {
        std::fs::create_dir_all(dir)?;
        let mut pairs = Vec::new();
        for (di, d) in self.domains.iter().enumerate() {
            let csv = dir.join(format!("d{di}.csv"));
            std::fs::write(&csv, d.csv())?;
            for m in 0..d.mirrors {
                let name = format!("d{di}m{m}");
                let ssdl = dir.join(format!("{name}.ssdl"));
                std::fs::write(&ssdl, d.ssdl(&name, m))?;
                pairs.push((ssdl, csv.clone()));
            }
        }
        Ok(pairs)
    }

    /// Sizes for the run report: members, rows per member, distinct
    /// shapes, disjunct range, and the oracle's result-size range.
    pub fn describe(&self) -> String {
        let shapes: HashSet<&str> = self.pool.iter().map(|q| q.shape.as_str()).collect();
        let disj = self.pool.iter().map(|q| q.cond.matches(" _ ").count() + 1);
        let (dmin, dmax) = disj.fold((usize::MAX, 0), |(a, b), n| (a.min(n), b.max(n)));
        let sizes = self.pool.iter().map(Query::expected_rows);
        let (rmin, rmax) = sizes.fold((usize::MAX, 0), |(a, b), n| (a.min(n), b.max(n)));
        format!(
            "{}: {} members ({} domains x {} mirrors, {} rows each), pool of {} queries \
             ({} distinct shapes{}), {}-{} disjuncts, {}-{} answer rows, \
             limit {}, tail p{}",
            self.name,
            self.members(),
            self.domains.len(),
            self.domains[0].mirrors,
            self.domains[0].rows(),
            self.pool.len(),
            shapes.len(),
            if self.cycle { ", cycled" } else { ", each shape once" },
            dmin,
            dmax,
            rmin,
            rmax,
            self.pool[0].limit.map_or("none".to_string(), |n| n.to_string()),
            self.tail_pct
        )
    }
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed ^ fnv_str(name));
    match name {
        "warm_repeat" => Some(warm_repeat(&mut rng)),
        "cold_shapes" => Some(cold_shapes(&mut rng)),
        "scan_heavy" => Some(scan_heavy(&mut rng)),
        _ => None,
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut d = Digest::new();
    d.value(s);
    d.finish()
}

/// `rounds` queries of each shape over `d`, shape by shape.
fn shaped(
    d: &Domain,
    shapes: &[Shape],
    (makes, colors): (usize, usize),
    limit: Option<u64>,
    rounds: usize,
    rng: &mut Rng,
) -> Vec<Query> {
    (0..rounds)
        .flat_map(|_| shapes.iter())
        .map(|s| Query::new(d, &s.draw(makes, colors, rng), s.cols, limit))
        .collect()
}

/// One relation of 2k rows behind 8 dealer mirrors; 8 shapes of 1-2
/// disjuncts with rotating constants and `limit=10`.
fn warm_repeat(rng: &mut Rng) -> Workload {
    let (makes, colors) = (8, 6);
    let d = Domain::generate(String::new(), 2000, (makes, colors), 8, TWO_FORMS, rng);
    let (p, y) = ((10000, 60000), (1995, 2015));
    let s = |forms: &[Form], cols| Shape {
        forms: forms.to_vec(),
        cols,
        same_make: false,
        price: p,
        year: y,
    };
    let shapes = [
        s(&[Form::Price], &[ID, MODEL, YEAR]),
        s(&[Form::Color], &[ID, MODEL, YEAR]),
        s(&[Form::Price, Form::Color], &[ID, MODEL, YEAR]),
        s(&[Form::Price, Form::Color], &[ID, MODEL]),
        s(&[Form::Price, Form::Price], &[ID, MODEL, YEAR]),
        s(&[Form::Color, Form::Color], &[ID, MODEL, YEAR]),
        s(&[Form::Price], &[ID, MODEL]),
        s(&[Form::Color, Form::Price], &[ID, MAKE, MODEL]),
    ];
    let warmup = shaped(&d, &shapes, (makes, colors), LIMIT, 2, rng);
    let pool = shaped(&d, &shapes, (makes, colors), LIMIT, 32, rng);
    Workload {
        name: "warm_repeat",
        domains: vec![d],
        warmup,
        pool,
        cycle: true,
        tail_pct: 90.0,
        traced_queries: 20_000,
    }
}

/// A few mirrors of one 25k-row relation; repeating shapes with no
/// `limit`, each matching 10^3-10^4 rows, some overlapping unions. At
/// 10^5 rows every source query's full scan is memory-bound, and on a
/// shared host its throughput swung 1.6x between runs; at 25k rows runs
/// agree within a few percent.
fn scan_heavy(rng: &mut Rng) -> Workload {
    let (makes, colors) = (4, 5);
    let d = Domain::generate(String::new(), 25_000, (makes, colors), 3, TWO_FORMS, rng);
    let s = |forms: &[Form], cols, same_make, price, year| Shape {
        forms: forms.to_vec(),
        cols,
        same_make,
        price,
        year,
    };
    let any = (1995, 2015);
    let shapes = [
        s(&[Form::Price], &[ID, MODEL, PRICE], false, (30000, 60000), any),
        s(&[Form::Color], &[ID, MODEL, YEAR], false, (1000, 60000), any),
        s(&[Form::Price, Form::Color], &[ID, MODEL, YEAR], true, (10000, 30000), any),
        s(&[Form::Color, Form::Color], &[ID, YEAR], false, (1000, 60000), any),
        s(&[Form::Year], &[ID, MODEL, YEAR], false, (1000, 60000), (2005, 2013)),
        s(&[Form::Year, Form::Color], &[ID, MODEL], true, (1000, 60000), (2008, 2016)),
    ];
    let warmup = shaped(&d, &shapes, (makes, colors), None, 1, rng);
    let pool = shaped(&d, &shapes, (makes, colors), None, 32, rng);
    Workload {
        name: "scan_heavy",
        domains: vec![d],
        warmup,
        pool,
        cycle: true,
        tail_pct: 90.0,
        traced_queries: 300,
    }
}

/// Projections of `cold_shapes` queries: every one is exported by every
/// form (so `co` never appears).
const COLD_PROJECTIONS: &[&[usize]] = &[
    &[ID, MODEL],
    &[ID, MODEL, YEAR],
    &[ID, MAKE, MODEL],
    &[ID, PRICE],
    &[ID, MODEL, PRICE],
    &[ID, YEAR],
];
const COLD_VARIANTS: &[&[Form]] = &[
    ALL_FORMS,
    &[Form::Price, Form::Color],
    &[Form::Price, Form::Year],
    &[Form::Color, Form::Year],
];

/// 40 domains of 8 mirrors (the `fedcorpus` layout); every query targets
/// one domain with a 3-5 disjunct condition whose parameterized shape
/// (domain, disjunct forms in order, projection) appears once per run.
fn cold_shapes(rng: &mut Rng) -> Workload {
    const DOMAINS: usize = 40;
    const POOL: usize = 4000;
    const WARMUP: usize = 4;
    let (makes, colors) = (8, 6);
    let domains: Vec<Domain> = (0..DOMAINS)
        .map(|i| Domain::generate(i.to_string(), 1000, (makes, colors), 8, COLD_VARIANTS, rng))
        .collect();
    // The stream's disjunct forms and projections come from a fixed
    // generator, so every seed plans the same sequence of shapes over its
    // own data and constants; the seed picks each query's domain.
    let mut shapes = Rng::new(0xC01D_5EA5);
    let mut seen = HashSet::new();
    let mut queries = Vec::with_capacity(POOL + WARMUP);
    while queries.len() < POOL + WARMUP {
        // Disjunct counts cycle 3, 4, 5 down the stream: planning time
        // grows steeply with the count.
        let n = 3 + queries.len() % 3;
        let forms: Vec<Form> = (0..n).map(|_| ALL_FORMS[shapes.below(ALL_FORMS.len())]).collect();
        let proj = shapes.below(COLD_PROJECTIONS.len());
        let di = loop {
            let di = rng.below(DOMAINS);
            if seen.insert((di, forms.clone(), proj)) {
                break di;
            }
        };
        let shape = Shape {
            forms,
            cols: COLD_PROJECTIONS[proj],
            same_make: false,
            price: (15000, 60000),
            year: (1992, 2012),
        };
        let d = &domains[di];
        queries.push(Query::new(d, &shape.draw(makes, colors, rng), shape.cols, LIMIT));
    }
    let pool = queries.split_off(WARMUP);
    Workload {
        name: "cold_shapes",
        domains,
        warmup: queries,
        pool,
        cycle: false,
        tail_pct: 90.0,
        traced_queries: 60,
    }
}
