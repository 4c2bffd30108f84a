//! The sub-plans a join-order optimizer estimates while planning one query: every
//! connected subset of its tables under the join graph, each carrying the joins inside the
//! subset and the predicates on its own tables.

use crn_query::ast::Query;

/// Every connected sub-plan of `query`, ordered by table count and then by the table
/// subset's bit pattern (deterministic).  A j-join star query has `2^j + j` of them: the
/// `j + 1` single tables plus the `2^j - 1` subsets joining the hub to at least one leaf.
pub fn connected_subplans(query: &Query) -> Vec<Query> {
    let tables: Vec<&String> = query.tables().iter().collect();
    assert!(
        tables.len() < 16,
        "sub-plan enumeration is exponential in the table count"
    );
    let index_of = |name: &str| {
        tables
            .iter()
            .position(|t| t.as_str() == name)
            .expect("join columns name FROM-clause tables")
    };
    let edges: Vec<(usize, usize)> = query
        .joins()
        .iter()
        .map(|join| (index_of(&join.left.table), index_of(&join.right.table)))
        .collect();

    let mut subsets: Vec<u32> = (1u32..(1 << tables.len()))
        .filter(|&mask| is_connected(mask, &edges))
        .collect();
    subsets.sort_by_key(|&mask| (mask.count_ones(), mask));
    subsets
        .into_iter()
        .map(|mask| {
            let inside = |name: &str| mask & (1 << index_of(name)) != 0;
            Query::new(
                tables.iter().filter(|t| inside(t)).map(|t| (*t).clone()),
                query
                    .joins()
                    .iter()
                    .filter(|j| inside(&j.left.table) && inside(&j.right.table))
                    .cloned(),
                query
                    .predicates()
                    .iter()
                    .filter(|p| inside(&p.column.table))
                    .cloned(),
            )
        })
        .collect()
}

/// Whether the tables in `mask` form one component over the join edges inside it.
fn is_connected(mask: u32, edges: &[(usize, usize)]) -> bool {
    let start = mask.trailing_zeros();
    let mut reached = 1u32 << start;
    loop {
        let mut grown = reached;
        for &(a, b) in edges {
            let (a, b) = (1u32 << a, 1u32 << b);
            if mask & a != 0 && mask & b != 0 && (reached & (a | b)) != 0 {
                grown |= a | b;
            }
        }
        if grown == reached {
            return reached == mask;
        }
        reached = grown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crn_db::imdb::{generate_imdb, ImdbConfig};
    use crn_query::generator::{GeneratorConfig, QueryGenerator};
    use std::collections::BTreeSet;

    #[test]
    fn star_queries_have_two_to_the_j_plus_j_connected_subplans() {
        let db = generate_imdb(&ImdbConfig::tiny(5));
        let mut generator = QueryGenerator::new(&db, GeneratorConfig::with_max_joins(17, 5));
        for joins in 0..=5 {
            for query in generator.generate_initial_with_joins(6, joins) {
                assert_eq!(query.num_joins(), joins);
                let subplans = connected_subplans(&query);
                assert_eq!(subplans.len(), (1 << joins) + joins, "{query:?}");

                let distinct: BTreeSet<&Query> = subplans.iter().collect();
                assert_eq!(distinct.len(), subplans.len(), "sub-plans are distinct");
                assert_eq!(subplans.last(), Some(&query), "the full plan comes last");
                for subplan in &subplans {
                    let tables = subplan.tables();
                    assert!(tables.is_subset(query.tables()));
                    // Connected: a spanning tree of the star needs |T| - 1 joins.
                    assert_eq!(subplan.num_joins(), tables.len() - 1, "{subplan:?}");
                    let mask = (1u32 << tables.len()) - 1;
                    let local: Vec<&String> = tables.iter().collect();
                    let at = |t: &String| local.iter().position(|x| *x == t).unwrap();
                    let edges: Vec<(usize, usize)> = subplan
                        .joins()
                        .iter()
                        .map(|j| (at(&j.left.table), at(&j.right.table)))
                        .collect();
                    assert!(is_connected(mask, &edges));
                    // Exactly its own tables' predicates.
                    let own: Vec<_> = query
                        .predicates()
                        .iter()
                        .filter(|p| tables.contains(&p.column.table))
                        .cloned()
                        .collect();
                    assert_eq!(subplan.predicates(), own.as_slice());
                }
            }
        }
    }

    #[test]
    fn disconnected_subsets_are_rejected() {
        // A path 0 - 1 - 2: {0, 2} is not connected, {0, 1, 2} is.
        let edges = [(0, 1), (1, 2)];
        assert!(is_connected(0b111, &edges));
        assert!(is_connected(0b011, &edges));
        assert!(!is_connected(0b101, &edges));
        assert!(is_connected(0b100, &edges));
    }
}
