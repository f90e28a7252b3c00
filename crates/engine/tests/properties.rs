//! Property tests for the stage engine: partitioning and per-partition
//! stages agree with their sequential references under randomized inputs.

use proptest::prelude::*;

use sbgt_engine::{Dataset, Engine, EngineConfig};

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_threads(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any partitioning of any vector preserves content and order.
    #[test]
    fn from_vec_preserves_order(
        data in prop::collection::vec(any::<i32>(), 0..200),
        parts in 1usize..12,
    ) {
        let ds = Dataset::from_vec(data.clone(), parts);
        prop_assert_eq!(ds.num_partitions(), parts);
        prop_assert_eq!(ds.collect(), data);
    }

    /// A per-partition map, read-only or in place, equals the iterator map.
    #[test]
    fn partition_stages_commute_with_collect(
        data in prop::collection::vec(any::<i16>(), 0..150),
        parts in 1usize..8,
    ) {
        let e = engine();
        let widened: Vec<i32> = data.iter().map(|x| i32::from(*x)).collect();
        let direct: Vec<i32> = widened.iter().map(|x| x * 3 - 1).collect();
        let mut ds = Dataset::from_vec(widened, parts);
        let read_only = ds.aggregate_partitions(&e, |_, part| {
            part.iter().map(|x| x * 3 - 1).collect::<Vec<_>>()
        });
        prop_assert_eq!(read_only.concat(), direct.clone());
        ds.map_partitions_in_place(&e, |_, part| part.iter_mut().for_each(|x| *x = *x * 3 - 1));
        prop_assert_eq!(ds.collect(), direct);
    }

    /// Per-partition partials combine to the sequential fold.
    #[test]
    fn aggregate_partitions_equals_fold(
        data in prop::collection::vec(0i64..1000, 0..200),
        parts in 1usize..9,
    ) {
        let e = engine();
        let ds = Dataset::from_vec(data.clone(), parts);
        let partials = ds.aggregate_partitions(&e, |_, part| part.iter().sum::<i64>());
        prop_assert_eq!(partials.len(), parts);
        prop_assert_eq!(partials.iter().sum::<i64>(), data.iter().sum::<i64>());
    }
}
