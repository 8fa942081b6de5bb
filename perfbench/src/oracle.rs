//! Answer oracles. Served answers are compared with the single-process
//! engine's offline answers for the same queries; BFS trees must be trees
//! of the graph whose depths match.

use crate::client::{hash_u32s, Answer, Record, Status};
use mcbfs_graph::csr::{CsrGraph, VertexId, UNVISITED};
use mcbfs_query::{Query, QueryEngine, QueryResult};

/// Checks every `ok` reply in `records` against the single-process engine
/// run offline on `graph` (64-query waves, `threads` wide). Returns the
/// number of wrong answers.
pub fn check_replies(graph: &CsrGraph, records: &[Record], threads: usize) -> u64 {
    let answered: Vec<(&Query, &Answer)> = records
        .iter()
        .filter(|r| r.status == Some(Status::Ok))
        .map(|r| {
            (
                &r.query,
                &r.reply.as_ref().expect("ok replies carry a reply").answer,
            )
        })
        .collect();
    let engine = QueryEngine::new(graph).threads(threads).max_batch(64);
    let mut wrong = 0u64;
    for chunk in answered.chunks(64) {
        let queries: Vec<Query> = chunk.iter().map(|(q, _)| **q).collect();
        let report = engine.execute(&queries);
        for ((query, answer), truth) in chunk.iter().zip(&report.outcomes) {
            if !matches(graph, query, answer, &truth.result) {
                wrong += 1;
            }
        }
    }
    wrong
}

fn matches(graph: &CsrGraph, query: &Query, answer: &Answer, truth: &QueryResult) -> bool {
    match (answer, truth) {
        (Answer::Distance(d), QueryResult::StCon { distance }) => d == distance,
        (Answer::Depths(h), QueryResult::Distances { depths }) => *h == hash_u32s(depths),
        // Which tree a parallel search builds may vary; its depths may not.
        (Answer::Tree { depths, parents }, QueryResult::Parents { depths: d, .. }) => {
            depths == d && is_bfs_tree(graph, query.source(), depths, parents)
        }
        _ => false,
    }
}

/// True when `parents` is a BFS tree of `graph` rooted at `root` whose
/// depths are `depths`: reached vertices hang off a graph edge from a
/// vertex one level up, unreached vertices have no parent.
pub fn is_bfs_tree(graph: &CsrGraph, root: VertexId, depths: &[u32], parents: &[VertexId]) -> bool {
    let n = graph.num_vertices();
    if depths.len() != n
        || parents.len() != n
        || parents.get(root as usize) != Some(&root)
        || depths[root as usize] != 0
    {
        return false;
    }
    (0..n).all(|v| {
        let (d, p) = (depths[v], parents[v]);
        match (d, p) {
            (u32::MAX, UNVISITED) => true,
            (0, _) => v == root as usize && p == root,
            (u32::MAX, _) | (_, UNVISITED) => false,
            (d, p) => {
                (p as usize) < n && depths[p as usize] == d - 1 && graph.has_edge(p, v as VertexId)
            }
        }
    })
}

/// Depth array squeezed to bytes (`u8::MAX` = unreached) so 64 searches of
/// a million-vertex graph fit in 64 MiB. `None` when a depth does not fit.
pub fn pack_depths(depths: &[u32]) -> Option<Vec<u8>> {
    depths
        .iter()
        .map(|&d| match d {
            u32::MAX => Some(u8::MAX),
            d => u8::try_from(d).ok().filter(|&b| b != u8::MAX),
        })
        .collect()
}

/// True when `depths` equals the packed array.
pub fn same_depths(packed: &[u8], depths: &[u32]) -> bool {
    packed.len() == depths.len()
        && packed.iter().zip(depths).all(|(&p, &d)| match p {
            u8::MAX => d == u32::MAX,
            p => d == p as u32,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_graph::validate::{depths_from_parents, sequential_parents};

    #[test]
    fn tree_check_accepts_bfs_trees_and_rejects_broken_ones() {
        // 0 - 1 - 2, 0 - 3 - 2, 4 isolated.
        let g = CsrGraph::from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let parents = sequential_parents(&g, 0);
        let depths = depths_from_parents(&parents);
        assert!(is_bfs_tree(&g, 0, &depths, &parents));
        // The other shortest-path parent of 2 is just as valid.
        let mut alt = parents.clone();
        alt[2] = if parents[2] == 1 { 3 } else { 1 };
        assert!(is_bfs_tree(&g, 0, &depths, &alt));
        // A parent with no edge to its child.
        let mut bad = parents.clone();
        bad[2] = 0;
        assert!(!is_bfs_tree(&g, 0, &depths, &bad));
        // An unreached vertex given a parent.
        let mut bad = parents.clone();
        bad[4] = 0;
        assert!(!is_bfs_tree(&g, 0, &depths, &bad));
    }

    #[test]
    fn packed_depths_round_trip() {
        let d = vec![0, 3, u32::MAX, 254];
        let p = pack_depths(&d).unwrap();
        assert!(same_depths(&p, &d));
        assert!(!same_depths(&p, &[0, 3, 7, 254]));
        assert_eq!(pack_depths(&[255]), None);
    }
}
