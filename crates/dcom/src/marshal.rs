//! Deep-copy marshaling sizes.
//!
//! DCOM transports arguments between machines by *deep copy*: every string,
//! array, and structure reachable from a parameter is serialized into the
//! request or reply packet. Coign's profiling informer measures exactly this
//! quantity — the number of bytes that would cross the wire if the two
//! communicating components were on different machines.
//!
//! The size rules below follow NDR (Network Data Representation)
//! conventions approximately: fixed scalars, length-prefixed conformant
//! strings and arrays, and a fixed-size `OBJREF` for marshaled interface
//! pointers. Exact byte-parity with MS-NDR is *not* required for the
//! reproduction — only that sizes are deterministic, monotone in payload
//! size, and identical between the profiling measurement and the distributed
//! execution (which they are, because both call this module).

use coign_com::idl::MethodDesc;
use coign_com::{ComError, ComResult, FoldState, Iid, Message, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of an `OBJREF` — the wire form of a marshaled interface pointer.
pub const OBJREF_SIZE: u64 = 68;

/// Fixed per-message DCOM/RPC header (`ORPCTHIS` / `ORPCTHAT` plus DCE
/// common header).
pub const MESSAGE_HEADER: u64 = 56;

/// Wire size of one value under deep-copy semantics.
///
/// Returns an error naming the offending component if the value contains a
/// non-remotable (opaque) pointer.
pub fn value_size(value: &Value) -> Result<u64, String> {
    match value {
        Value::I4(_) | Value::Bool(_) => Ok(4),
        Value::I8(_) | Value::F8(_) => Ok(8),
        // Conformant BSTR: 8-byte header + UTF-16 payload.
        Value::Str(s) => Ok(8 + 2 * s.chars().count() as u64),
        // Conformant byte array: 8-byte header + payload.
        Value::Blob(n) => Ok(8 + n),
        Value::Array(items) => {
            let mut total = 12; // conformance + offset + count
            for item in items {
                total += value_size(item)?;
            }
            Ok(total)
        }
        Value::Struct(fields) => {
            let mut total = 8; // alignment/embedding overhead
            for field in fields {
                total += value_size(field)?;
            }
            Ok(total)
        }
        Value::Interface(Some(_)) => Ok(OBJREF_SIZE),
        Value::Interface(None) | Value::Null => Ok(4), // NULL pointer marker
        Value::Opaque(tok) => Err(format!("opaque pointer 0x{tok:x} cannot be marshaled")),
    }
}

fn directional_size(method: &MethodDesc, msg: &Message, want_request: bool) -> ComResult<u64> {
    let mut total = MESSAGE_HEADER;
    for (idx, param) in method.params.iter().enumerate() {
        let travels = if want_request {
            param.dir.in_request()
        } else {
            param.dir.in_reply()
        };
        if !travels {
            continue;
        }
        let value = msg.arg(idx).unwrap_or(&Value::Null);
        total += value_size(value).map_err(|detail| ComError::NotRemotable {
            iid: coign_com::Iid(coign_com::Guid::NULL),
            detail: format!("{} param `{}`: {detail}", method.name, param.name),
        })?;
    }
    Ok(total)
}

/// Wire size of the request message (`[in]` and `[in, out]` parameters).
pub fn message_request_size(method: &MethodDesc, msg: &Message) -> ComResult<u64> {
    directional_size(method, msg, true)
}

/// Wire size of the reply message (`[out]` and `[in, out]` parameters).
pub fn message_reply_size(method: &MethodDesc, msg: &Message) -> ComResult<u64> {
    directional_size(method, msg, false)
}

// --- Marshal-size memoization ------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds the structural *shape* of a value into the hash: type tags plus
/// the only quantities [`value_size`] depends on (string char counts, blob
/// lengths, container arities). Returns `false` on an opaque pointer —
/// sizing it errors, so such trees are never cached.
fn shape_hash(h: &mut u64, value: &Value) -> bool {
    match value {
        Value::I4(_) => mix(h, 1),
        Value::I8(_) => mix(h, 2),
        Value::F8(_) => mix(h, 3),
        Value::Bool(_) => mix(h, 4),
        Value::Str(s) => {
            mix(h, 5);
            mix(h, s.chars().count() as u64);
        }
        Value::Blob(n) => {
            mix(h, 6);
            mix(h, *n);
        }
        Value::Array(items) => {
            mix(h, 7);
            mix(h, items.len() as u64);
            return items.iter().all(|item| shape_hash(h, item));
        }
        Value::Struct(fields) => {
            mix(h, 8);
            mix(h, fields.len() as u64);
            return fields.iter().all(|field| shape_hash(h, field));
        }
        Value::Interface(Some(_)) => mix(h, 9),
        Value::Interface(None) => mix(h, 10),
        Value::Null => mix(h, 11),
        Value::Opaque(_) => return false,
    }
    true
}

/// FNV-1a fingerprint of the shapes of every argument traveling in the
/// given direction, or `None` if the tree contains an opaque pointer.
fn directional_fingerprint(method: &MethodDesc, msg: &Message, want_request: bool) -> Option<u64> {
    let mut h = FNV_OFFSET;
    for (idx, param) in method.params.iter().enumerate() {
        let travels = if want_request {
            param.dir.in_request()
        } else {
            param.dir.in_reply()
        };
        if !travels {
            continue;
        }
        mix(&mut h, idx as u64);
        if !shape_hash(&mut h, msg.arg(idx).unwrap_or(&Value::Null)) {
            return None;
        }
    }
    Some(h)
}

/// `(iid, method, request?, shape fingerprint)`.
type SizeKey = (Iid, u32, bool, u64);

/// Memoizes deep-copy message sizes by `(iid, method, direction,
/// value-shape fingerprint)`.
///
/// [`value_size`] is a pure function of a value's shape — the type tags,
/// string/blob lengths, and container arities hashed by the fingerprint —
/// so two structurally identical argument trees always marshal to the same
/// number of bytes and the recursive walk can be skipped on a repeat.
/// Request and reply shapes are fingerprinted independently (a stateful
/// component may answer identical requests with different replies, so the
/// reply is hashed *after* the call under its own direction key).
///
/// Trees containing opaque pointers never enter the cache: sizing them is
/// the non-remotable error path and must re-fire every time.
#[derive(Debug, Default)]
pub struct SizeCache {
    map: Mutex<HashMap<SizeKey, u64, FoldState>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SizeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SizeCache::default()
    }

    /// Calls served from the cache (the deep-copy walk was skipped).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that had to perform the full deep-copy walk.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Absorbs the hit/miss counters into a metrics registry.
    pub fn record_metrics(&self, registry: &coign_obs::Registry) {
        registry
            .counter("coign_marshal_cache_hits_total")
            .add(self.hits());
        registry
            .counter("coign_marshal_cache_misses_total")
            .add(self.misses());
    }

    /// Request size through the cache; the flag reports a cache hit.
    pub fn request_size(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
    ) -> (ComResult<u64>, bool) {
        self.sized(iid, method_index, method, msg, true)
    }

    /// Reply size through the cache; the flag reports a cache hit.
    pub fn reply_size(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
    ) -> (ComResult<u64>, bool) {
        self.sized(iid, method_index, method, msg, false)
    }

    fn sized(
        &self,
        iid: Iid,
        method_index: u32,
        method: &MethodDesc,
        msg: &Message,
        want_request: bool,
    ) -> (ComResult<u64>, bool) {
        let Some(shape) = directional_fingerprint(method, msg, want_request) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (directional_size(method, msg, want_request), false);
        };
        let key = (iid, method_index, want_request, shape);
        if let Some(&size) = self.map.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(size), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = directional_size(method, msg, want_request);
        if let Ok(size) = result {
            self.map.lock().insert(key, size);
        }
        (result, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coign_com::idl::{InterfaceBuilder, ParamDesc, ParamDir};
    use coign_com::PType;

    #[test]
    fn scalar_sizes() {
        assert_eq!(value_size(&Value::I4(1)).unwrap(), 4);
        assert_eq!(value_size(&Value::I8(1)).unwrap(), 8);
        assert_eq!(value_size(&Value::F8(1.0)).unwrap(), 8);
        assert_eq!(value_size(&Value::Bool(true)).unwrap(), 4);
        assert_eq!(value_size(&Value::Null).unwrap(), 4);
    }

    #[test]
    fn string_size_is_utf16() {
        assert_eq!(value_size(&Value::Str("abc".into())).unwrap(), 8 + 6);
        assert_eq!(value_size(&Value::Str("".into())).unwrap(), 8);
    }

    #[test]
    fn blob_size_tracks_payload() {
        assert_eq!(value_size(&Value::Blob(1_000_000)).unwrap(), 8 + 1_000_000);
    }

    #[test]
    fn deep_copy_recurses() {
        let v = Value::Struct(vec![
            Value::I4(1),
            Value::Array(vec![Value::Blob(100), Value::Blob(200)]),
        ]);
        // struct(8) + i4(4) + array(12) + blob(108) + blob(208)
        assert_eq!(value_size(&v).unwrap(), 8 + 4 + 12 + 108 + 208);
    }

    #[test]
    fn interface_pointers_marshal_as_objref() {
        assert_eq!(value_size(&Value::Interface(None)).unwrap(), 4);
        // A present interface pointer needs a live runtime to build (the
        // OBJREF path is exercised by the integration tests); a null
        // pointer inside a struct still marshals as a 4-byte marker.
        let nested = Value::Struct(vec![Value::Interface(None)]);
        assert_eq!(value_size(&nested).unwrap(), 8 + 4);
    }

    #[test]
    fn opaque_pointers_are_not_remotable() {
        let err = value_size(&Value::Opaque(0xdead)).unwrap_err();
        assert!(err.contains("cannot be marshaled"));
        // Even nested inside a struct.
        let nested = Value::Struct(vec![Value::I4(1), Value::Opaque(1)]);
        assert!(value_size(&nested).is_err());
    }

    fn rw_method() -> MethodDesc {
        MethodDesc::new(
            "ReadWrite",
            vec![
                ParamDesc::new("key", ParamDir::In, PType::Str),
                ParamDesc::new("buf", ParamDir::InOut, PType::Blob),
                ParamDesc::new("status", ParamDir::Out, PType::I4),
            ],
        )
    }

    #[test]
    fn request_counts_in_and_inout() {
        let m = rw_method();
        let msg = Message::new(vec![Value::Str("ab".into()), Value::Blob(100), Value::Null]);
        let req = message_request_size(&m, &msg).unwrap();
        // header + str(8+4) + blob(108); the out param does not travel.
        assert_eq!(req, MESSAGE_HEADER + 12 + 108);
    }

    #[test]
    fn reply_counts_out_and_inout() {
        let m = rw_method();
        let msg = Message::new(vec![
            Value::Str("ab".into()),
            Value::Blob(100),
            Value::I4(0),
        ]);
        let reply = message_reply_size(&m, &msg).unwrap();
        // header + blob(108) + i4(4); the in param does not travel back.
        assert_eq!(reply, MESSAGE_HEADER + 108 + 4);
    }

    #[test]
    fn missing_args_count_as_null() {
        let m = rw_method();
        let msg = Message::empty();
        let req = message_request_size(&m, &msg).unwrap();
        assert_eq!(req, MESSAGE_HEADER + 4 + 4); // two null markers
    }

    #[test]
    fn size_cache_hits_on_identical_shapes_only() {
        let m = rw_method();
        let iid = Iid(coign_com::Guid::NULL);
        let cache = SizeCache::new();

        let msg = Message::new(vec![Value::Str("ab".into()), Value::Blob(100), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &msg);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // Same shape, different content: a hit with the same size.
        let same_shape = Message::new(vec![Value::Str("xy".into()), Value::Blob(100), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &same_shape);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A different blob length is a different shape: a miss.
        let grown = Message::new(vec![Value::Str("ab".into()), Value::Blob(101), Value::Null]);
        let (size, hit) = cache.request_size(iid, 0, &m, &grown);
        assert_eq!(size.unwrap(), MESSAGE_HEADER + 12 + 109);
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn size_cache_keys_directions_independently() {
        let m = rw_method();
        let iid = Iid(coign_com::Guid::NULL);
        let cache = SizeCache::new();
        let msg = Message::new(vec![
            Value::Str("ab".into()),
            Value::Blob(100),
            Value::I4(0),
        ]);
        // Request then reply of the same message: different directions,
        // both misses, correct (different) sizes.
        let (req, hit_req) = cache.request_size(iid, 0, &m, &msg);
        let (reply, hit_reply) = cache.reply_size(iid, 0, &m, &msg);
        assert!(!hit_req && !hit_reply);
        assert_eq!(req.unwrap(), MESSAGE_HEADER + 12 + 108);
        assert_eq!(reply.unwrap(), MESSAGE_HEADER + 108 + 4);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn size_cache_never_caches_opaque_trees() {
        let iface = InterfaceBuilder::new("ISharedCache")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .build();
        let m = &iface.methods[0];
        let cache = SizeCache::new();
        let msg = Message::new(vec![Value::Opaque(7)]);
        for expected_misses in 1..=3 {
            let (size, hit) = cache.request_size(iface.iid, 0, m, &msg);
            assert!(size.is_err());
            assert!(!hit);
            assert_eq!((cache.hits(), cache.misses()), (0, expected_misses));
        }
    }

    #[test]
    fn opaque_param_fails_whole_message() {
        let iface = InterfaceBuilder::new("IShared")
            .method("Map", |m| m.input("handle", PType::Opaque))
            .build();
        let m = &iface.methods[0];
        let msg = Message::new(vec![Value::Opaque(7)]);
        assert!(matches!(
            message_request_size(m, &msg),
            Err(ComError::NotRemotable { .. })
        ));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::faults::properties::random_string;
    use coign_com::idl::{MethodDesc, ParamDesc, ParamDir};
    use coign_com::PType;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    const CASES: u64 = 64;

    /// A remotable value tree: a leaf or, while `depth` lasts, half the
    /// time an array or struct of up to five subtrees.
    fn value(rng: &mut StdRng, depth: u32) -> Value {
        if depth > 0 && rng.gen_bool(0.5) {
            let children = (0..rng.gen_range(0..6))
                .map(|_| value(rng, depth - 1))
                .collect();
            return if rng.gen_bool(0.5) {
                Value::Array(children)
            } else {
                Value::Struct(children)
            };
        }
        match rng.gen_range(0..6) {
            0 => Value::I4(rng.next_u32() as i32),
            1 => Value::I8(rng.next_u64() as i64),
            2 => Value::Bool(rng.gen_bool(0.5)),
            3 => Value::Str(random_string(rng, &['a'..='z'], 0..17)),
            4 => Value::Blob(rng.gen_range(0..10_000)),
            _ => Value::Null,
        }
    }

    /// A method signature of one to five parameters together with a
    /// matching argument list, every parameter a value tree of depth 3.
    fn call(rng: &mut StdRng) -> (MethodDesc, Message) {
        let dirs = [ParamDir::In, ParamDir::Out, ParamDir::InOut];
        let (mut descs, mut args) = (Vec::new(), Vec::new());
        for i in 0..rng.gen_range(1..6) {
            let dir = dirs[rng.gen_range(0..dirs.len())];
            descs.push(ParamDesc::new(&format!("p{i}"), dir, PType::Blob));
            args.push(value(rng, 3));
        }
        (MethodDesc::new("Probe", descs), Message::new(args))
    }

    /// A call's (request, reply) sizes by the direct, uncached walk.
    fn sizes(m: &MethodDesc, msg: &Message) -> (u64, u64) {
        (
            message_request_size(m, msg).unwrap(),
            message_reply_size(m, msg).unwrap(),
        )
    }

    #[test]
    fn size_is_deterministic_and_positive() {
        for case in 0..CASES {
            let v = value(&mut StdRng::seed_from_u64(case), 3);
            let a = value_size(&v).unwrap();
            assert_eq!(a, value_size(&v).unwrap(), "case {case}");
            assert!(a >= 4, "case {case}");
        }
    }

    #[test]
    fn bigger_blob_never_shrinks_message() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (n, extra) = (rng.gen_range(0u64..100_000), rng.gen_range(1u64..100_000));
            let small = value_size(&Value::Blob(n)).unwrap();
            let large = value_size(&Value::Blob(n + extra)).unwrap();
            assert!(large > small, "case {case}");
        }
    }

    #[test]
    fn array_size_is_sum_of_elements_plus_header() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let items: Vec<Value> = (0..rng.gen_range(0..10))
                .map(|_| Value::Blob(rng.gen_range(0..1000)))
                .collect();
            let parts: u64 = items.iter().map(|v| value_size(v).unwrap()).sum();
            let whole = value_size(&Value::Array(items)).unwrap();
            assert_eq!(whole, parts + 12, "case {case}");
        }
    }

    #[test]
    fn message_sizes_are_deterministic_for_a_value_tree() {
        for case in 0..CASES {
            let (m, msg) = call(&mut StdRng::seed_from_u64(case));
            assert_eq!(sizes(&m, &msg), sizes(&m, &msg), "case {case}");
        }
    }

    #[test]
    fn cached_sizes_equal_uncached_sizes() {
        // The cache is an invisible optimization: for any call, sizes
        // through the cache (cold, then warm) match the direct walk.
        for case in 0..CASES {
            let (m, msg) = call(&mut StdRng::seed_from_u64(case));
            let iid = Iid(coign_com::Guid::NULL);
            let cache = SizeCache::new();
            for _ in 0..2 {
                let (req, _) = cache.request_size(iid, 0, &m, &msg);
                let (reply, _) = cache.reply_size(iid, 0, &m, &msg);
                assert_eq!(
                    (req.unwrap(), reply.unwrap()),
                    sizes(&m, &msg),
                    "case {case}"
                );
            }
            assert!(cache.hits() >= 2, "case {case}");
        }
    }

    #[test]
    fn message_sizes_never_zero_for_nonempty_param_lists() {
        // Even a direction no parameter travels in still carries the
        // RPC header, so sizes are never zero.
        for case in 0..CASES {
            let (m, msg) = call(&mut StdRng::seed_from_u64(case));
            let (request, reply) = sizes(&m, &msg);
            assert!(
                request >= MESSAGE_HEADER && reply >= MESSAGE_HEADER,
                "case {case}"
            );
        }
    }

    #[test]
    fn message_sizes_are_monotone_in_payload() {
        let m = MethodDesc::new(
            "Grow",
            vec![ParamDesc::new("buf", ParamDir::InOut, PType::Blob)],
        );
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (n, extra) = (rng.gen_range(0u64..50_000), rng.gen_range(1u64..50_000));
            let small = sizes(&m, &Message::new(vec![Value::Blob(n)]));
            let large = sizes(&m, &Message::new(vec![Value::Blob(n + extra)]));
            assert!(large.0 > small.0 && large.1 > small.1, "case {case}");
        }
    }

    #[test]
    fn growing_one_argument_never_shrinks_the_message() {
        // Replace the first request-traveling argument with a larger blob
        // and check the request size does not decrease.
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (m, msg) = call(&mut rng);
            let grow = rng.gen_range(1u64..10_000);
            let Some(idx) = m.params.iter().position(|p| p.dir.in_request()) else {
                continue;
            };
            let before = sizes(&m, &msg).0;
            let base = value_size(msg.arg(idx).unwrap_or(&Value::Null)).unwrap();
            let mut args: Vec<Value> = (0..m.params.len())
                .map(|i| msg.arg(i).unwrap_or(&Value::Null).clone())
                .collect();
            args[idx] = Value::Blob(base + grow);
            let after = sizes(&m, &Message::new(args)).0;
            assert!(after > before, "case {case}");
        }
    }
}
