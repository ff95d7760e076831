//! Seeking and intersecting strictly ascending `u32` lists — CST adjacency
//! lists are such lists. The emulated kernel's expansion (`fast::kernel`)
//! uses [`seek`] and [`intersect_each`]; the CPU engine (`matching::engine`)
//! gallops with [`seek`] inside its own pairwise `intersect_sorted`. Both
//! count a sibling run at a cycle-closing last depth with [`count_run`], the
//! one implementation of that step.

use crate::structure::CsrAdj;

/// First index `i` with `list[i] >= x` (`list.len()` if none): doubling
/// probes from the front, then a binary search within the final bracket,
/// so a target `k` places in costs `O(log k)` however long the list is.
#[inline]
pub fn seek(list: &[u32], x: u32) -> usize {
    // Invariant: everything before `lo` is < x.
    let (mut lo, mut step) = (0usize, 1usize);
    while lo + step <= list.len() && list[lo + step - 1] < x {
        lo += step;
        step *= 2;
    }
    // Either the last probe found an element >= x or it ran off the end.
    let hi = (lo + step - 1).min(list.len());
    lo + list[lo..hi].partition_point(|&y| y < x)
}

/// Calls `each` on every element common to all `lists`, in ascending
/// order: drives from the shortest list and seeks in the others, cutting
/// each down as it is passed (`lists` is scratch: reordered and consumed).
/// No lists, no calls.
#[inline]
pub fn intersect_each(lists: &mut [&[u32]], mut each: impl FnMut(u32)) {
    let Some(shortest) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return;
    };
    lists.swap(0, shortest);
    let (driver, others) = lists.split_first_mut().expect("non-empty");
    'element: while let Some((&x, tail)) = driver.split_first() {
        *driver = tail;
        for other in others.iter_mut() {
            *other = &other[seek(other, x)..];
            match other.first() {
                None => return,
                Some(&y) if y != x => continue 'element,
                Some(_) => {}
            }
        }
        each(x);
    }
}

/// Survivors of a *sibling run* at a cycle-closing last depth `u`: partials
/// that agree on every mapped depth but the anchor's, whose indices — the
/// `members`, strictly ascending, read through `member` — each expand into
/// the window `N(anchor → u)(s)`, validated against the same `lists`. By CST
/// symmetry (`x ∈ N(anchor → u)(s) ⇔ s ∈ N(u → anchor)(x)`) that is, over
/// every `x` common to `lists`, `|rev(x) ∩ members|`: one merge of `x`'s
/// reverse list against the members, clipped to the first and last of them.
/// `None` once that walk (`Σ |rev(x)|`) is longer than `window`, the members'
/// windows together — expanding member by member is then no dearer. Visited
/// candidates are the caller's concern. `lists` is scratch, as in
/// [`intersect_each`].
#[inline]
pub fn count_run(
    lists: &mut [&[u32]],
    rev: &CsrAdj,
    members: usize,
    member: impl Fn(usize) -> u32,
    window: usize,
) -> Option<usize> {
    if members == 0 {
        return Some(0);
    }
    let (first, last) = (member(0), member(members - 1));
    debug_assert!((1..members).all(|m| member(m - 1) < member(m)));
    let (mut walk, mut survivors) = (0usize, 0usize);
    intersect_each(lists, |x| {
        let list = rev.neighbors(x as usize);
        walk += list.len();
        if walk > window {
            return;
        }
        let lo = seek(list, first);
        let mut m = 0;
        for &s in &list[lo..lo + seek(&list[lo..], last + 1)] {
            while member(m) < s {
                m += 1;
            }
            survivors += usize::from(member(m) == s);
        }
    });
    (walk <= window).then_some(survivors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_finds_lower_bound() {
        let v: Vec<u32> = vec![2, 4, 4, 8, 16, 32, 64];
        for (from, x, want) in [
            (0usize, 0u32, 0usize),
            (0, 2, 0),
            (0, 3, 1),
            (0, 4, 1),
            (2, 4, 2),
            (0, 64, 6),
            (0, 65, 7),
            (7, 1, 7),
        ] {
            assert_eq!(from + seek(&v[from..], x), want, "from={from} x={x}");
        }
    }

    /// Every list length 0..=17 (brackets of 1, 2, 4, 8 end exactly at
    /// lengths 1, 3, 7, 15) and every target from before the first element
    /// to after the last, against the definition.
    #[test]
    fn seek_matches_definition_at_every_bracket_end() {
        for len in 0..=17u32 {
            let list: Vec<u32> = (0..len).map(|i| 10 + 3 * i).collect();
            for x in 0..=10 + 3 * len + 2 {
                let want = list.iter().position(|&y| y >= x).unwrap_or(list.len());
                assert_eq!(seek(&list, x), want, "len={len} x={x}");
            }
        }
    }

    fn common(lists: &[&[u32]]) -> Vec<u32> {
        let mut lists = lists.to_vec();
        let mut got = Vec::new();
        intersect_each(&mut lists, |x| got.push(x));
        got
    }

    #[test]
    fn intersect_each_matches_definition() {
        let long: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let evens: Vec<u32> = (0..600).map(|i| i * 2).collect();
        let few: &[u32] = &[0, 6, 7, 12, 600, 1194, 1197, 1200];
        let cases: Vec<Vec<&[u32]>> = vec![
            // No lists; p = 0, empty and not.
            vec![],
            vec![&[]],
            vec![&[1, 5, 9]],
            // p = 1: an empty partner, an empty driver, equal lists, disjoint
            // lists (interleaved, partner wholly after, partner wholly
            // before), a short list against a long one either way round.
            vec![&[], &[1, 2]],
            vec![&[1, 2], &[]],
            vec![&[1, 5, 9], &[1, 5, 9]],
            vec![&[1, 3, 5], &[2, 4, 6]],
            vec![&[1, 2, 3], &[7, 8, 9, 10]],
            vec![&[7, 8, 9], &[1, 2, 3, 4]],
            vec![few, &long],
            vec![&long, few],
            // p = 3: the driver in the middle; a driver past every end.
            vec![&long, &evens, few, &long],
            vec![&evens, &long, &evens, &[5000]],
        ];
        for lists in cases {
            let want: Vec<u32> = match lists.split_first() {
                None => vec![],
                Some((first, rest)) => first
                    .iter()
                    .copied()
                    .filter(|x| rest.iter().all(|l| l.contains(x)))
                    .collect(),
            };
            assert_eq!(common(&lists), want, "lists {lists:?}");
        }
    }
}
