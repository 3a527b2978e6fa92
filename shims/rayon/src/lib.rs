//! Offline stand-in for the `rayon` crate.
//!
//! Provides the subset of the rayon 1.x data-parallel API this
//! workspace uses: `par_iter`, `par_iter_mut`, `into_par_iter`, and
//! the adapters `map`, `enumerate`, `for_each`, `collect`. Work is
//! fanned out over `std::thread::scope` in contiguous, order-preserving
//! chunks; with one available core (or `RAYON_NUM_THREADS=1`)
//! everything degrades to a serial loop with no thread spawns.
//!
//! `enumerate` yields source positions exactly like upstream rayon, and
//! `collect` preserves source order, so callers observe the same
//! results as with the real crate.

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// Number of worker threads the pool would use (env override via
/// `RAYON_NUM_THREADS`, else the number of available cores). Resolved
/// once at first use, like upstream rayon's global pool size: later
/// changes to the environment are not seen.
pub fn current_num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Run `f` over every item, in parallel when it pays, returning results
/// in source order. `f` receives the item's source index.
fn execute<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let part: Vec<I> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        chunks.push(part);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(ci, part)| {
                scope.spawn(move || {
                    part.into_iter()
                        .enumerate()
                        .map(|(j, x)| f(ci * chunk + j, x))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// A parallel pipeline. `drive` threads the source index through every
/// adapter so `enumerate` can report source positions from any stage.
pub trait ParallelIterator: Sized {
    type Item: Send;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.drive(|_, x| f(x));
    }

    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive(|_, x| x).into_iter().collect()
    }
}

pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync,
{
    type Item = R;

    fn drive<R2, G>(self, g: G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(usize, R) -> R2 + Sync,
    {
        let f = self.f;
        self.inner.drive(move |i, x| g(i, f(x)))
    }
}

pub struct Enumerate<P> {
    inner: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);

    fn drive<R, G>(self, g: G) -> Vec<R>
    where
        R: Send,
        G: Fn(usize, (usize, P::Item)) -> R + Sync,
    {
        self.inner.drive(move |i, x| g(i, (i, x)))
    }
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

pub struct SliceIter<'a, T> {
    items: Vec<&'a T>,
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &'a T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

pub struct SliceIterMut<'a, T> {
    items: Vec<&'a mut T>,
}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;

    fn drive<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &'a mut T) -> R + Sync,
    {
        execute(self.items, f)
    }
}

/// `vec.into_par_iter()` — consuming parallel iteration.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl<T: Send, const N: usize> IntoParallelIterator for [T; N] {
    type Item = T;
    type Iter = VecIter<T>;

    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self.into_iter().collect() }
    }
}

/// `slice.par_iter()` — shared parallel iteration over slices/Vecs.
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SliceIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { items: self.iter().collect() }
    }
}

/// `slice.par_iter_mut()`.
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T> {
        SliceIterMut { items: self.iter_mut().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_collect() {
        let v: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_for_each() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, slot)| *slot = i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn panics_propagate() {
        let v = [1usize, 2, 3];
        let r = std::panic::catch_unwind(|| {
            v.par_iter().for_each(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }
}
