//! LDBC-SNB-like social-network generator.
//!
//! Reproduces the *shape* of the paper's datasets (Table III): 11 vertex
//! labels, hub-dominated degree distribution (cities, popular tags, prolific
//! creators), and message volume that dwarfs the person count — while staying
//! laptop-scale. The scale factor plays the role of the paper's `DGx` suffix;
//! see [`crate::datasets`] for the ladder used in the experiments.
//!
//! Schema (11 labels, matching LDBC SNB's node types):
//!
//! | label | entity | connected to |
//! |-------|--------|--------------|
//! | 0 | Person | Person (knows), City, Forum, University, Company |
//! | 1 | City | Country |
//! | 2 | Country | Continent |
//! | 3 | Continent | |
//! | 4 | Forum | Person (moderator/member), Post (container), Tag |
//! | 5 | Post | Person (creator), Tag |
//! | 6 | Comment | Person (creator), Post/Comment (replyOf), Tag |
//! | 7 | Tag | TagClass |
//! | 8 | TagClass | TagClass (subclass) |
//! | 9 | University | City |
//! | 10 | Company | Country |

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::types::{Label, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The 11 LDBC SNB vertex labels.
pub mod labels {
    use crate::types::Label;

    pub const PERSON: Label = Label::new(0);
    pub const CITY: Label = Label::new(1);
    pub const COUNTRY: Label = Label::new(2);
    pub const CONTINENT: Label = Label::new(3);
    pub const FORUM: Label = Label::new(4);
    pub const POST: Label = Label::new(5);
    pub const COMMENT: Label = Label::new(6);
    pub const TAG: Label = Label::new(7);
    pub const TAG_CLASS: Label = Label::new(8);
    pub const UNIVERSITY: Label = Label::new(9);
    pub const COMPANY: Label = Label::new(10);

    /// Number of labels in the schema (Table III reports 11).
    pub const COUNT: usize = 11;
}

/// Human-readable name of a schema label.
pub fn label_name(l: Label) -> &'static str {
    match l.raw() {
        0 => "Person",
        1 => "City",
        2 => "Country",
        3 => "Continent",
        4 => "Forum",
        5 => "Post",
        6 => "Comment",
        7 => "Tag",
        8 => "TagClass",
        9 => "University",
        10 => "Company",
        _ => "Unknown",
    }
}

/// Tunable knobs of the generator.
///
/// Defaults reproduce LDBC-SNB proportions at mini scale: `scale_factor = 1.0`
/// corresponds to the repository's scaled-down `DG01`.
#[derive(Debug, Clone)]
pub struct LdbcParams {
    /// Multiplies the per-entity counts; the `x` of `DGx` (relative scale).
    pub scale_factor: f64,
    /// Persons at scale factor 1.
    pub persons_base: usize,
    /// Posts per person (LDBC SF1 has ~1M posts for ~9K persons ≈ 110; we use
    /// a smaller multiplier to keep the mini scale balanced).
    pub posts_per_person: f64,
    /// Comments per person.
    pub comments_per_person: f64,
    /// Average `knows` degree between persons.
    pub avg_knows_degree: f64,
    /// Forums per person.
    pub forums_per_person: f64,
    /// Average forum membership.
    pub avg_forum_members: f64,
    /// Average tags per post.
    pub avg_tags_per_post: f64,
    /// Probability a comment carries a tag.
    pub comment_tag_prob: f64,
    /// Fixed dictionary sizes (like LDBC's place/tag dictionaries, these do
    /// not grow with the scale factor).
    pub cities: usize,
    pub countries: usize,
    pub continents: usize,
    pub tags: usize,
    pub tag_classes: usize,
    pub universities: usize,
    pub companies: usize,
    /// Zipf skew of popularity distributions (cities, tags, reply targets).
    pub zipf_exponent: f64,
}

impl Default for LdbcParams {
    fn default() -> Self {
        LdbcParams {
            scale_factor: 1.0,
            persons_base: 900,
            posts_per_person: 11.0,
            comments_per_person: 24.0,
            avg_knows_degree: 16.0,
            forums_per_person: 0.5,
            avg_forum_members: 30.0,
            avg_tags_per_post: 2.5,
            comment_tag_prob: 0.6,
            cities: 150,
            countries: 30,
            continents: 6,
            tags: 400,
            tag_classes: 20,
            universities: 50,
            companies: 80,
            zipf_exponent: 0.9,
        }
    }
}

impl LdbcParams {
    /// Parameters for a given scale factor with all other knobs at default.
    pub fn with_scale_factor(sf: f64) -> Self {
        LdbcParams {
            scale_factor: sf,
            ..Default::default()
        }
    }

    fn persons(&self) -> usize {
        ((self.persons_base as f64) * self.scale_factor)
            .round()
            .max(2.0) as usize
    }
}

/// Draws from a Zipf-like distribution over `0..n` with exponent `s`,
/// using a precomputed cumulative weight table.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        ZipfSampler { cumulative }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().unwrap();
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < x)
    }
}

/// Generates a deterministic LDBC-like social network.
///
/// Two calls with equal `params` and `seed` produce identical graphs.
pub fn generate_ldbc(params: &LdbcParams, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let persons = params.persons();
    let posts = ((persons as f64) * params.posts_per_person).round() as usize;
    let comments = ((persons as f64) * params.comments_per_person).round() as usize;
    let forums = ((persons as f64) * params.forums_per_person)
        .round()
        .max(1.0) as usize;

    let approx_edges = (persons as f64 * params.avg_knows_degree / 2.0) as usize
        + persons * 3
        + posts * (2 + params.avg_tags_per_post as usize)
        + comments * 3
        + forums * (params.avg_forum_members as usize + 2);
    let total_vertices = persons
        + params.cities
        + params.countries
        + params.continents
        + forums
        + posts
        + comments
        + params.tags
        + params.tag_classes
        + params.universities
        + params.companies;
    let mut b = GraphBuilder::with_capacity(total_vertices, approx_edges);

    // --- Vertices (contiguous id ranges per label). ---
    let person0 = b.add_vertices(persons, labels::PERSON);
    let city0 = b.add_vertices(params.cities, labels::CITY);
    let country0 = b.add_vertices(params.countries, labels::COUNTRY);
    let continent0 = b.add_vertices(params.continents, labels::CONTINENT);
    let forum0 = b.add_vertices(forums, labels::FORUM);
    let post0 = b.add_vertices(posts, labels::POST);
    let comment0 = b.add_vertices(comments, labels::COMMENT);
    let tag0 = b.add_vertices(params.tags, labels::TAG);
    let tagclass0 = b.add_vertices(params.tag_classes, labels::TAG_CLASS);
    let univ0 = b.add_vertices(params.universities, labels::UNIVERSITY);
    let company0 = b.add_vertices(params.companies, labels::COMPANY);

    let vid = |base: VertexId, i: usize| VertexId::new(base.raw() + i as u32);

    // --- Place hierarchy: city → country → continent. ---
    for c in 0..params.cities {
        let country = c % params.countries;
        b.add_edge(vid(city0, c), vid(country0, country)).unwrap();
    }
    for c in 0..params.countries {
        b.add_edge(vid(country0, c), vid(continent0, c % params.continents))
            .unwrap();
    }

    // --- Tag hierarchy: tag → tagclass; tagclass subclass chain. ---
    let tagclass_zipf = ZipfSampler::new(params.tag_classes, params.zipf_exponent);
    for t in 0..params.tags {
        let tc = tagclass_zipf.sample(&mut rng);
        b.add_edge(vid(tag0, t), vid(tagclass0, tc)).unwrap();
    }
    for tc in 1..params.tag_classes {
        // Shallow forest: subclass of a random earlier class.
        let sup = rng.gen_range(0..tc);
        b.add_edge(vid(tagclass0, tc), vid(tagclass0, sup)).unwrap();
    }

    // --- Universities / companies attach to places. ---
    for u in 0..params.universities {
        b.add_edge(vid(univ0, u), vid(city0, u % params.cities))
            .unwrap();
    }
    for c in 0..params.companies {
        b.add_edge(vid(company0, c), vid(country0, c % params.countries))
            .unwrap();
    }

    // --- Persons: location (Zipf over cities), study, work. ---
    let city_zipf = ZipfSampler::new(params.cities, params.zipf_exponent);
    let mut person_city = Vec::with_capacity(persons);
    for p in 0..persons {
        let city = city_zipf.sample(&mut rng);
        person_city.push(city);
        b.add_edge(vid(person0, p), vid(city0, city)).unwrap();
        if rng.gen_bool(0.8) {
            let u = rng.gen_range(0..params.universities);
            b.add_edge(vid(person0, p), vid(univ0, u)).unwrap();
        }
        if rng.gen_bool(0.9) {
            let c = rng.gen_range(0..params.companies);
            b.add_edge(vid(person0, p), vid(company0, c)).unwrap();
        }
    }

    // --- knows graph: preferential attachment (Barabási–Albert style),
    //     biased toward same-city persons, giving the social hub structure
    //     real LDBC data exhibits. ---
    let m = (params.avg_knows_degree / 2.0).round().max(1.0) as usize;
    // Endpoint multiset for degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(persons * m * 2);
    for p in 0..persons.min(m + 1) {
        for q in 0..p {
            b.add_edge(vid(person0, p), vid(person0, q)).unwrap();
            endpoints.push(p as u32);
            endpoints.push(q as u32);
        }
    }
    for p in (m + 1)..persons {
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m && guard < 10 * m {
            guard += 1;
            let q = if rng.gen_bool(0.2) {
                // Same-city bias: pick a random earlier person from this city
                // if one exists (linear probe over a few random draws).
                let mut probe = rng.gen_range(0..p);
                let mut tries = 0;
                while person_city[probe] != person_city[p] && tries < 8 {
                    probe = rng.gen_range(0..p);
                    tries += 1;
                }
                probe as u32
            } else if endpoints.is_empty() {
                rng.gen_range(0..p) as u32
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if q as usize != p {
                b.add_edge(vid(person0, p), VertexId::new(person0.raw() + q))
                    .unwrap();
                endpoints.push(p as u32);
                endpoints.push(q);
                added += 1;
            }
        }
    }

    // --- Activity skew: prolific creators follow a Zipf over persons. ---
    let person_zipf = ZipfSampler::new(persons, params.zipf_exponent);
    let tag_zipf = ZipfSampler::new(params.tags, params.zipf_exponent);

    // --- Forums: moderator + members (friends-biased). ---
    for f in 0..forums {
        let moderator = person_zipf.sample(&mut rng);
        b.add_edge(vid(forum0, f), vid(person0, moderator)).unwrap();
        let member_count = 1 + rng.gen_range(0..(2.0 * params.avg_forum_members) as usize + 1);
        for _ in 0..member_count {
            let p = person_zipf.sample(&mut rng);
            b.add_edge(vid(forum0, f), vid(person0, p)).unwrap();
        }
        if rng.gen_bool(0.7) {
            let t = tag_zipf.sample(&mut rng);
            b.add_edge(vid(forum0, f), vid(tag0, t)).unwrap();
        }
    }

    // --- Posts: creator, container forum, tags. ---
    for po in 0..posts {
        let creator = person_zipf.sample(&mut rng);
        b.add_edge(vid(post0, po), vid(person0, creator)).unwrap();
        let f = rng.gen_range(0..forums);
        b.add_edge(vid(post0, po), vid(forum0, f)).unwrap();
        let ntags = sample_count(&mut rng, params.avg_tags_per_post);
        for _ in 0..ntags {
            let t = tag_zipf.sample(&mut rng);
            b.add_edge(vid(post0, po), vid(tag0, t)).unwrap();
        }
    }

    // --- Comments: creator, replyOf (post or earlier comment, Zipf-biased
    //     toward popular posts), optional tag. ---
    let post_zipf = ZipfSampler::new(posts.max(1), params.zipf_exponent);
    for co in 0..comments {
        let creator = person_zipf.sample(&mut rng);
        b.add_edge(vid(comment0, co), vid(person0, creator))
            .unwrap();
        // 70% reply to a post, 30% to an earlier comment (thread depth).
        if co == 0 || rng.gen_bool(0.7) {
            if posts > 0 {
                let p = post_zipf.sample(&mut rng);
                b.add_edge(vid(comment0, co), vid(post0, p)).unwrap();
            }
        } else {
            let parent = rng.gen_range(0..co);
            b.add_edge(vid(comment0, co), vid(comment0, parent))
                .unwrap();
        }
        if rng.gen_bool(params.comment_tag_prob) {
            let t = tag_zipf.sample(&mut rng);
            b.add_edge(vid(comment0, co), vid(tag0, t)).unwrap();
        }
    }

    b.build()
}

/// Samples a small non-negative count with the given mean (geometric-ish mix
/// keeping the tail short).
fn sample_count<R: Rng>(rng: &mut R, mean: f64) -> usize {
    let base = mean.floor() as usize;
    let frac = mean - base as f64;
    base + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> LdbcParams {
        LdbcParams {
            scale_factor: 0.1,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = tiny_params();
        let g1 = generate_ldbc(&p, 42);
        let g2 = generate_ldbc(&p, 42);
        assert_eq!(g1.vertex_count(), g2.vertex_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        // Spot-check some adjacency lists.
        for v in [0u32, 10, 100].map(VertexId::new) {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = tiny_params();
        let g1 = generate_ldbc(&p, 1);
        let g2 = generate_ldbc(&p, 2);
        // Same vertex counts (structure is deterministic in params) but the
        // wiring should differ.
        assert_eq!(g1.vertex_count(), g2.vertex_count());
        let differs = g1.vertices().any(|v| g1.neighbors(v) != g2.neighbors(v));
        assert!(differs);
    }

    #[test]
    fn has_all_eleven_labels() {
        let g = generate_ldbc(&tiny_params(), 7);
        assert_eq!(g.label_count(), labels::COUNT);
        for l in 0..labels::COUNT {
            assert!(
                !g.vertices_with_label(Label::new(l as u16)).is_empty(),
                "label {l} missing"
            );
        }
    }

    #[test]
    fn scale_factor_scales_persons_and_messages() {
        let small = generate_ldbc(&LdbcParams::with_scale_factor(0.1), 3);
        let large = generate_ldbc(&LdbcParams::with_scale_factor(0.3), 3);
        let persons = |g: &Graph| g.vertices_with_label(labels::PERSON).len();
        let comments = |g: &Graph| g.vertices_with_label(labels::COMMENT).len();
        assert!(persons(&large) > 2 * persons(&small));
        assert!(comments(&large) > 2 * comments(&small));
        // Dictionary entities stay fixed, like LDBC's.
        assert_eq!(
            small.vertices_with_label(labels::CITY).len(),
            large.vertices_with_label(labels::CITY).len()
        );
    }

    #[test]
    fn degree_distribution_has_hubs() {
        let g = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 11);
        // Hub-dominated: the max degree should far exceed the average, as in
        // Table III (e.g. DG01: avg 10.8 vs max 464K).
        assert!(
            (g.max_degree() as f64) > 20.0 * g.avg_degree(),
            "max {} vs avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] && counts[0] > counts[99]);
        assert!(counts[0] > 500, "rank-0 mass too small: {}", counts[0]);
    }

    #[test]
    fn sample_count_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 20_000;
        let total: usize = (0..n).map(|_| sample_count(&mut rng, 1.7)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.7).abs() < 0.05, "mean {mean}");
    }
}
