//! # monarch-ffi — the C ABI a DL framework integrates against
//!
//! The paper integrates MONARCH into TensorFlow by changing six lines:
//! instantiate the middleware, register the driver, and replace the POSIX
//! `pread` with `Monarch.read` (which takes a *filename* instead of a file
//! descriptor). This crate exposes exactly that surface as a `cdylib`, so
//! a framework's POSIX file-system driver can do the same against the Rust
//! implementation:
//!
//! ```c
//! monarch_t *m = monarch_init_json(config_json);        // 1
//! /* ... in the storage driver's PRead():               */
//! long n = monarch_read(m, filename, offset, buf, len); // 2 (was pread)
//! /* ... at teardown:                                   */
//! monarch_shutdown(m);                                  // 3
//! ```
//!
//! All functions are panic-safe (panics are caught and converted to error
//! codes) and thread-safe (the middleware is internally synchronised).

use std::ffi::{c_char, c_int, c_long, CStr, CString};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

use monarch_core::{Monarch, MonarchConfig};

/// Opaque middleware handle exposed to C.
pub struct MonarchHandle {
    inner: Monarch,
}

/// Error codes returned by the C API.
pub mod errcode {
    /// Operation succeeded.
    pub const OK: i64 = 0;
    /// A pointer argument was null or a string was not valid UTF-8.
    pub const EINVAL: i64 = -1;
    /// The configuration could not be parsed or applied.
    pub const ECONFIG: i64 = -2;
    /// The file is not present in the namespace.
    pub const ENOENT: i64 = -3;
    /// An I/O error occurred in a storage backend.
    pub const EIO: i64 = -4;
    /// An internal panic was caught.
    pub const EPANIC: i64 = -5;
}

fn to_str<'a>(ptr: *const c_char) -> Option<&'a str> {
    if ptr.is_null() {
        return None;
    }
    // SAFETY: caller passes a NUL-terminated string (C API contract).
    unsafe { CStr::from_ptr(ptr) }.to_str().ok()
}

/// Hand a Rust string to C, to be released with [`monarch_string_free`].
/// Null for `None` and for a string with an interior NUL.
fn into_c(s: Option<String>) -> *mut c_char {
    s.and_then(|s| CString::new(s).ok())
        .map_or(ptr::null_mut(), CString::into_raw)
}

/// The shared head of every call on a handle: run `f` on the instance,
/// or say why not — [`errcode::EINVAL`] for a null handle,
/// [`errcode::EPANIC`] for a panic caught inside `f`.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed, or be
/// null.
unsafe fn with_instance<T>(
    handle: *mut MonarchHandle,
    f: impl FnOnce(&Monarch) -> T,
) -> Result<T, i64> {
    if handle.is_null() {
        return Err(errcode::EINVAL);
    }
    // SAFETY: non-null, and live per the contract above.
    let monarch = unsafe { &(*handle).inner };
    catch_unwind(AssertUnwindSafe(|| f(monarch))).map_err(|_| errcode::EPANIC)
}

/// The shared tail of every string export: null where [`with_instance`]
/// fails or `f` has nothing; otherwise `f`'s string, handed to C.
///
/// # Safety
/// As for [`with_instance`].
unsafe fn export(
    handle: *mut MonarchHandle,
    f: impl FnOnce(&Monarch) -> Option<String>,
) -> *mut c_char {
    // SAFETY: the caller's contract is `with_instance`'s.
    into_c(unsafe { with_instance(handle, f) }.ok().flatten())
}

/// The shared tail of every call that answers with a count or a status:
/// `f`'s value, or [`with_instance`]'s error code.
///
/// # Safety
/// As for [`with_instance`].
unsafe fn status(handle: *mut MonarchHandle, f: impl FnOnce(&Monarch) -> i64) -> i64 {
    // SAFETY: the caller's contract is `with_instance`'s.
    unsafe { with_instance(handle, f) }.unwrap_or_else(|code| code)
}

/// The error code for a failed read or lookup.
fn code_of(e: &monarch_core::Error) -> i64 {
    match e {
        monarch_core::Error::UnknownFile(_) => errcode::ENOENT,
        _ => errcode::EIO,
    }
}

/// Create a middleware instance from a JSON configuration string (see
/// [`monarch_core::config::MonarchConfig`] for the schema) and scan the
/// PFS tier to populate the namespace. Returns null on failure.
///
/// # Safety
/// `config_json` must be a valid NUL-terminated C string or null.
#[no_mangle]
pub unsafe extern "C" fn monarch_init_json(config_json: *const c_char) -> *mut MonarchHandle {
    let result = catch_unwind(|| {
        let json = to_str(config_json)?;
        let cfg = MonarchConfig::from_json(json).ok()?;
        let inner = Monarch::new(cfg).ok()?;
        inner.init().ok()?;
        Some(Box::new(MonarchHandle { inner }))
    });
    match result {
        Ok(Some(handle)) => Box::into_raw(handle),
        _ => ptr::null_mut(),
    }
}

/// Apply one `key = value` override to a JSON configuration string and
/// return the updated JSON (release it with [`monarch_string_free`]).
/// Chain calls to build up a config without a JSON library on the C side,
/// then hand the result to [`monarch_init_json`]. Supported keys:
///
/// | key                         | value                                    |
/// |-----------------------------|------------------------------------------|
/// | `cluster.node_id`           | this node's index into the peer list     |
/// | `cluster.nodes`             | comma-separated `host:port` peer list    |
/// | `cluster.shard_seed`        | consistent-hash seed all nodes agree on  |
/// | `cluster.peer_timeout_ms`   | per-request peer I/O timeout             |
/// | `cluster.remote_deadline_ms`| queued remote-install deadline           |
/// | `cluster.serve`             | `1`/`true` or `0`/`false`                |
/// | `policy.kind`               | `first_fit`, `round_robin`, `lru_evict`, |
/// |                             | `lfu`, `cost_aware`, `clairvoyant`,      |
/// |                             | `learned`                                |
/// | `policy.admission`          | `admit_all`, `reuse_aware`, or           |
/// |                             | `size_threshold:<bytes>`                 |
///
/// Returns null when the config does not parse, the key is unknown, or
/// the value does not parse for that key. Validation of the assembled
/// cluster section (node id in range, non-empty roster) happens at init.
///
/// # Safety
/// All three arguments must be valid NUL-terminated C strings or null.
#[no_mangle]
pub unsafe extern "C" fn monarch_configure(
    config_json: *const c_char,
    key: *const c_char,
    value: *const c_char,
) -> *mut c_char {
    let outcome = catch_unwind(|| {
        let json = to_str(config_json)?;
        let key = to_str(key)?;
        let value = to_str(value)?;
        let mut cfg = MonarchConfig::from_json(json).ok()?;
        apply_config_key(&mut cfg, key, value)?;
        Some(cfg.to_json())
    });
    into_c(outcome.unwrap_or(None))
}

/// [`monarch_configure`]'s key dispatch, separated for unit testing.
fn apply_config_key(cfg: &mut MonarchConfig, key: &str, value: &str) -> Option<()> {
    // Policy keys must not materialise a cluster section as a side
    // effect, so they dispatch before the cluster get-or-insert.
    match key {
        "policy.kind" => {
            cfg.policy = monarch_core::config::PolicyKind::parse(value)?;
            return Some(());
        }
        "policy.admission" => {
            cfg.admission = monarch_core::config::AdmissionKind::parse(value)?;
            return Some(());
        }
        _ => {}
    }
    let cluster = cfg
        .cluster
        .get_or_insert_with(|| monarch_core::ClusterConfig::new(0, Vec::new()));
    match key {
        "cluster.node_id" => cluster.node_id = value.parse().ok()?,
        "cluster.nodes" => {
            cluster.nodes = value
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
        }
        "cluster.shard_seed" => cluster.shard_seed = value.parse().ok()?,
        "cluster.peer_timeout_ms" => cluster.peer_timeout_ms = value.parse().ok()?,
        "cluster.remote_deadline_ms" => cluster.remote_deadline_ms = value.parse().ok()?,
        "cluster.serve" => {
            cluster.serve = match value {
                "1" | "true" => true,
                "0" | "false" => false,
                _ => return None,
            }
        }
        _ => return None,
    }
    Some(())
}

/// The `Monarch.read` operation: read up to `len` bytes of `filename`
/// starting at `offset` into `buf`. Returns the byte count (0 at EOF) or a
/// negative [`errcode`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed;
/// `filename` must be NUL-terminated; `buf` must point to `len` writable
/// bytes.
#[no_mangle]
pub unsafe extern "C" fn monarch_read(
    handle: *mut MonarchHandle,
    filename: *const c_char,
    offset: u64,
    buf: *mut u8,
    len: usize,
) -> c_long {
    if buf.is_null() {
        return errcode::EINVAL as c_long;
    }
    let Some(name) = to_str(filename) else {
        return errcode::EINVAL as c_long;
    };
    // SAFETY: caller guarantees buf/len per the contract above.
    let slice = unsafe { std::slice::from_raw_parts_mut(buf, len) };
    // SAFETY: the caller's contract is `with_instance`'s.
    match unsafe { with_instance(handle, |m| m.read(name, offset, slice)) } {
        Ok(Ok(n)) => n as c_long,
        Ok(Err(e)) => code_of(&e) as c_long,
        Err(code) => code as c_long,
    }
}

/// Size of `filename` per the namespace, or a negative [`errcode`].
///
/// # Safety
/// Same contract as [`monarch_read`] for `handle` and `filename`.
#[no_mangle]
pub unsafe extern "C" fn monarch_file_size(
    handle: *mut MonarchHandle,
    filename: *const c_char,
) -> c_long {
    let Some(name) = to_str(filename) else {
        return errcode::EINVAL as c_long;
    };
    // SAFETY: the caller's contract is `with_instance`'s.
    match unsafe { with_instance(handle, |m| m.file_size(name)) } {
        Ok(Ok(size)) => size as c_long,
        Ok(Err(e)) => code_of(&e) as c_long,
        Err(code) => code as c_long,
    }
}

/// Number of files registered in the namespace, or a negative [`errcode`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_file_count(handle: *mut MonarchHandle) -> c_long {
    // SAFETY: the caller's contract is `status`'s.
    unsafe { status(handle, |m| m.metadata().len() as i64) as c_long }
}

/// Export the instance's state document
/// ([`monarch_core::TelemetrySnapshot`]: `schema_version`, `stats`,
/// `gauges`, the latency summaries, `stall_profile`, `health`, `policy`,
/// `observe`, and `cluster` when clustered) as JSON — the same document
/// `/snapshot` serves. `section` selects one top-level key of that
/// document (`"stats"`, `"health"`, `"policy"`, `"cluster"`, …); null
/// means the whole document. Returns null for a null handle, a section
/// that is not valid UTF-8, or a key the document does not have — an
/// unknown name, or a section this instance lacks, such as `cluster` on a
/// single node. The returned string must be released with
/// [`monarch_string_free`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed;
/// `section` must be a valid NUL-terminated C string or null.
#[no_mangle]
pub unsafe extern "C" fn monarch_snapshot_json(
    handle: *mut MonarchHandle,
    section: *const c_char,
) -> *mut c_char {
    let key = to_str(section);
    if key.is_none() && !section.is_null() {
        return ptr::null_mut();
    }
    // SAFETY: the caller's contract is `export`'s.
    unsafe {
        export(handle, |m| {
            let doc = serde_json::to_value(&m.telemetry_snapshot()).ok()?;
            let part = match key {
                Some(key) => doc.get(key)?,
                None => &doc,
            };
            serde_json::to_string(part).ok()
        })
    }
}

/// Export the telemetry registry as Prometheus-style text exposition
/// (counters plus cumulative latency histograms, `histogram_quantile()`
/// ready) — the same registry the CLI's `monarch metrics` renders. The
/// returned string must be released with [`monarch_string_free`]. Null on
/// failure.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_metrics_text(handle: *mut MonarchHandle) -> *mut c_char {
    // SAFETY: the caller's contract is `export`'s.
    unsafe { export(handle, |m| Some(m.metrics_text())) }
}

/// Export the buffered telemetry journal as JSON lines (one event object
/// per line, oldest first; empty string when the journal is empty or
/// disabled). Non-destructive. The returned string must be released with
/// [`monarch_string_free`]. Null on failure.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_events_json(handle: *mut MonarchHandle) -> *mut c_char {
    // SAFETY: the caller's contract is `export`'s.
    unsafe { export(handle, |m| Some(m.events_json())) }
}

/// Export the recorded trace spans as a Chrome Trace Event / Perfetto
/// JSON document (load it in `ui.perfetto.dev`). Non-destructive; returns
/// the empty-trace shell when tracing is off (`trace_sample_every_n: 0`).
/// The returned string must be released with [`monarch_string_free`].
/// Null on failure.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_trace_json(handle: *mut MonarchHandle) -> *mut c_char {
    // SAFETY: the caller's contract is `export`'s.
    unsafe { export(handle, |m| Some(m.trace_json())) }
}

/// Start the observability HTTP exporter (`/metrics`, `/snapshot`,
/// `/trace`, `/healthz`) on `addr` (e.g. `"127.0.0.1:9464"`; a `0` port
/// picks a free one). Returns the *bound* port (> 0) on success, or a
/// negative [`errcode`]: `EINVAL` for a null/invalid address string,
/// `ECONFIG` when an exporter is already running on this handle, `EIO`
/// when the bind fails.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed; `addr`
/// must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn monarch_serve_start(
    handle: *mut MonarchHandle,
    addr: *const c_char,
) -> c_long {
    let Some(addr) = to_str(addr) else {
        return errcode::EINVAL as c_long;
    };
    // SAFETY: the caller's contract is `with_instance`'s.
    match unsafe { with_instance(handle, |m| m.serve(addr)) } {
        Ok(Ok(bound)) => c_long::from(bound.port()),
        Ok(Err(monarch_core::Error::InvalidConfig(_))) => errcode::ECONFIG as c_long,
        Ok(Err(_)) => errcode::EIO as c_long,
        Err(code) => code as c_long,
    }
}

/// Stop the exporter started by [`monarch_serve_start`] (or the config's
/// `metrics_addr`), joining its threads. Returns 1 if one was running,
/// 0 if not, or a negative [`errcode`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_serve_stop(handle: *mut MonarchHandle) -> c_int {
    // SAFETY: the caller's contract is `status`'s.
    unsafe { status(handle, |m| i64::from(m.serve_stop())) as c_int }
}

/// Release a string returned by [`monarch_configure`],
/// [`monarch_snapshot_json`], [`monarch_metrics_text`],
/// [`monarch_events_json`] or [`monarch_trace_json`].
///
/// # Safety
/// `s` must come from this library and not be freed twice.
#[no_mangle]
pub unsafe extern "C" fn monarch_string_free(s: *mut c_char) {
    if !s.is_null() {
        // SAFETY: produced by CString::into_raw above.
        drop(unsafe { CString::from_raw(s) });
    }
}

/// Submit a clairvoyant access plan: `plan` is a newline-separated list of
/// file names in the order the framework will read them during the upcoming
/// epoch (blank lines ignored). The middleware stages the listed files into
/// faster tiers ahead of the read cursor, within the configured lookahead
/// and in-flight byte budget. Any previous plan is cancelled first. Returns
/// the number of plan entries admitted to the prefetch window (0 when
/// prefetching is disabled, i.e. `prefetch_lookahead: 0`), or a negative
/// [`errcode`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed; `plan`
/// must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn monarch_submit_plan(
    handle: *mut MonarchHandle,
    plan: *const c_char,
) -> c_long {
    let Some(text) = to_str(plan) else {
        return errcode::EINVAL as c_long;
    };
    let submit = |m: &Monarch| m.submit_plan(&monarch_core::AccessPlan::from_lines(text)) as i64;
    // SAFETY: the caller's contract is `status`'s.
    unsafe { status(handle, submit) as c_long }
}

/// Cancel the active access plan, if any: queued prefetch copies are
/// withdrawn (in-flight ones finish). Returns the number of withdrawn
/// queued copies, or a negative [`errcode`].
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_cancel_plan(handle: *mut MonarchHandle) -> c_long {
    // SAFETY: the caller's contract is `status`'s.
    unsafe { status(handle, |m| m.cancel_prefetch_plan() as i64) as c_long }
}

/// Block until all background placement copies are finished (tests,
/// graceful teardown).
///
/// # Safety
/// `handle` must come from [`monarch_init_json`] and not be freed.
#[no_mangle]
pub unsafe extern "C" fn monarch_wait_idle(handle: *mut MonarchHandle) -> c_int {
    let wait = |m: &Monarch| {
        m.wait_placement_idle();
        0
    };
    // SAFETY: the caller's contract is `status`'s.
    unsafe { status(handle, wait) as c_int }
}

/// Destroy the middleware: drains the copy pool and frees the handle.
///
/// # Safety
/// `handle` must come from [`monarch_init_json`]; it must not be used
/// afterwards.
#[no_mangle]
pub unsafe extern "C" fn monarch_shutdown(handle: *mut MonarchHandle) {
    if handle.is_null() {
        return;
    }
    // SAFETY: unique ownership returns to Rust here.
    let boxed = unsafe { Box::from_raw(handle) };
    let _ = catch_unwind(AssertUnwindSafe(move || {
        let _ = boxed.inner.shutdown();
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use monarch_core::config::{MonarchConfig, TierConfig};
    use std::ffi::CString;

    /// Build a config over two real directories with staged data.
    fn staged_config(tag: &str) -> (CString, std::path::PathBuf, u64) {
        let root = std::env::temp_dir().join(format!("monarch-ffi-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let data = root.join("pfs");
        std::fs::create_dir_all(&data).unwrap();
        let mut total = 0u64;
        for i in 0..4 {
            let content = vec![i as u8; 1000 + i as usize];
            total += content.len() as u64;
            std::fs::write(data.join(format!("f{i}")), content).unwrap();
        }
        let cfg = MonarchConfig::builder()
            .tier(
                TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                    .with_capacity(1 << 20),
            )
            .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
            .pool_threads(2)
            .build();
        (CString::new(cfg.to_json()).unwrap(), root, total)
    }

    /// Copy a returned string out and free it — each exactly once; `None`
    /// for a null return.
    unsafe fn take(p: *mut c_char) -> Option<String> {
        if p.is_null() {
            return None;
        }
        let s = unsafe { CStr::from_ptr(p) }
            .to_str()
            .expect("valid UTF-8")
            .to_string();
        unsafe { monarch_string_free(p) };
        Some(s)
    }

    /// The exporter's whole response to `GET path`.
    fn http_get(port: c_long, path: &str) -> String {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(("127.0.0.1", port as u16)).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    }

    /// One section of the snapshot document (`""` = whole), parsed.
    unsafe fn section(h: *mut MonarchHandle, key: &str) -> Option<serde_json::Value> {
        let key = CString::new(key).unwrap();
        let ptr = if key.as_bytes().is_empty() {
            ptr::null()
        } else {
            key.as_ptr()
        };
        let json = unsafe { take(monarch_snapshot_json(h, ptr)) }?;
        Some(serde_json::from_str(&json).expect("section is valid JSON"))
    }

    #[test]
    fn full_lifecycle_through_c_abi() {
        let (json, root, _total) = staged_config("lifecycle");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            assert_eq!(monarch_file_count(h), 4);

            let name = CString::new("f2").unwrap();
            assert_eq!(monarch_file_size(h, name.as_ptr()), 1002);

            let mut buf = vec![0u8; 4096];
            let n = monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len());
            assert_eq!(n, 1002);
            assert!(buf[..1002].iter().all(|&b| b == 2));

            // Offset read.
            let n = monarch_read(h, name.as_ptr(), 1000, buf.as_mut_ptr(), buf.len());
            assert_eq!(n, 2);

            // EOF.
            let n = monarch_read(h, name.as_ptr(), 5000, buf.as_mut_ptr(), buf.len());
            assert_eq!(n, 0);

            assert_eq!(monarch_wait_idle(h), 0);
            let stats = section(h, "stats").expect("stats section");
            assert_eq!(stats["copies_completed"], 1, "{stats:?}");

            // Second read is served locally now.
            let n = monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len());
            assert_eq!(n, 1002);

            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn metrics_text_roundtrip() {
        let (json, root, _) = staged_config("metrics");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let name = CString::new("f1").unwrap();
            let mut buf = vec![0u8; 4096];
            assert!(monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()) > 0);
            assert_eq!(monarch_wait_idle(h), 0);

            // Prometheus text: valid UTF-8, carries the per-tier counters
            // and latency summaries, freed via monarch_string_free.
            let text = take(monarch_metrics_text(h)).expect("exposition");
            assert!(
                text.contains("# TYPE monarch_tier_reads_total counter"),
                "{text}"
            );
            assert!(text.contains("monarch_tier_reads_total{tier=\"ssd\"}"));
            assert!(
                text.contains("# TYPE monarch_read_latency_seconds histogram"),
                "{text}"
            );
            assert!(text.contains("monarch_read_latency_seconds_bucket{tier=\"pfs\",le=\"+Inf\"}"));
            assert!(text.contains("monarch_copies_completed_total 1"));

            // Journal JSON lines: each line parses as a JSON object with
            // the event schema.
            let events = take(monarch_events_json(h)).expect("journal");
            assert!(!events.is_empty());
            for line in events.lines() {
                let v: serde_json::Value = serde_json::from_str(line).unwrap();
                assert!(v.get("seq").is_some() && v.get("event").is_some(), "{line}");
            }
            assert!(events.contains("\"event\":\"copy_completed\""));

            // Null handle → null, not a crash.
            assert!(monarch_metrics_text(ptr::null_mut()).is_null());
            assert!(monarch_events_json(ptr::null_mut()).is_null());

            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trace_json_roundtrip() {
        use monarch_core::TelemetryConfig;
        let root = std::env::temp_dir().join(format!("monarch-ffi-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let data = root.join("pfs");
        std::fs::create_dir_all(&data).unwrap();
        std::fs::write(data.join("f0"), vec![7u8; 2048]).unwrap();
        let cfg = MonarchConfig::builder()
            .tier(
                TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                    .with_capacity(1 << 20),
            )
            .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
            .pool_threads(1)
            .telemetry(TelemetryConfig::with_tracing())
            .build();
        let json = CString::new(cfg.to_json()).unwrap();
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let name = CString::new("f0").unwrap();
            let mut buf = vec![0u8; 256];
            assert!(monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()) > 0);
            assert_eq!(monarch_wait_idle(h), 0);

            let trace = take(monarch_trace_json(h)).expect("trace");
            let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
            let events = v["traceEvents"].as_array().unwrap();
            assert!(events.iter().any(|e| e["name"] == "driver_pread"));
            assert!(events.iter().any(|e| e["name"] == "copy_exec"));
            assert!(events.iter().any(|e| e["ph"] == "s"));

            // Null handle → null, not a crash.
            assert!(monarch_trace_json(ptr::null_mut()).is_null());

            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_round_trips_into_a_report() {
        // What `monarch_report_json` used to compute on this side of the
        // ABI, a caller now derives from the one document: whole snapshot →
        // `TelemetrySnapshot` → `ObserveReport`.
        let (json, root, _) = staged_config("report");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let name = CString::new("f0").unwrap();
            let mut buf = vec![0u8; 4096];
            assert!(monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()) > 0);
            assert_eq!(monarch_wait_idle(h), 0);
            assert!(monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()) > 0);

            let doc = take(monarch_snapshot_json(h, ptr::null())).expect("whole document");
            let snap: monarch_core::TelemetrySnapshot = serde_json::from_str(&doc).unwrap();
            assert_eq!(snap.schema_version, monarch_core::telemetry::SCHEMA_VERSION);
            assert_eq!(snap.stats.copies_completed, 1);
            let report = monarch_core::ObserveReport::from_snapshot(&snap, 0.5, 1, 5)
                .expect("the profiler is on by default");
            assert_eq!(report.wall_s, 0.5);
            assert_eq!(report.reads, 2);
            assert!(report.top_hot.iter().any(|f| f.file == "f0"), "{doc}");
            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_sections_and_bad_arguments() {
        let (json, root, _) = staged_config("sections");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            // A section is a top-level key of the whole document, and equals
            // that key's value.
            let whole = section(h, "").expect("whole document");
            for key in ["schema_version", "stats", "gauges", "health", "policy"] {
                assert_eq!(
                    section(h, key).as_ref(),
                    whole.get(key),
                    "section {key} is the document's key"
                );
                assert!(whole.get(key).is_some(), "document lacks {key}");
            }
            // Null handle, unknown section, a section this instance lacks,
            // and a section that is not UTF-8: null, not a crash.
            assert!(monarch_snapshot_json(ptr::null_mut(), ptr::null()).is_null());
            assert!(section(ptr::null_mut(), "stats").is_none());
            assert!(section(h, "bogus").is_none());
            assert!(section(h, "cluster").is_none(), "single node: no cluster");
            let not_utf8 = [0xffu8, 0xfe, 0];
            assert!(monarch_snapshot_json(h, not_utf8.as_ptr().cast()).is_null());
            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn one_document_through_every_surface() {
        // On an idle instance the Rust getter, the C export and the HTTP
        // endpoint must serve the same document: they are one assembly.
        let (json, root, _) = staged_config("surfaces");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let addr = CString::new("127.0.0.1:0").unwrap();
            let port = monarch_serve_start(h, addr.as_ptr());
            assert!(port > 0);

            let rust = serde_json::to_value(&(*h).inner.telemetry_snapshot()).unwrap();
            let c = section(h, "").expect("whole document");
            let resp = http_get(port, "/snapshot");
            let body = resp.split_once("\r\n\r\n").expect("http body").1;
            let http: serde_json::Value = serde_json::from_str(body).unwrap();

            assert_eq!(
                rust, c,
                "Monarch::telemetry_snapshot vs monarch_snapshot_json"
            );
            assert_eq!(rust, http, "Monarch::telemetry_snapshot vs /snapshot");
            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn access_plan_through_c_abi() {
        let root = std::env::temp_dir().join(format!("monarch-ffi-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let data = root.join("pfs");
        std::fs::create_dir_all(&data).unwrap();
        for i in 0..3 {
            std::fs::write(data.join(format!("f{i}")), vec![i as u8; 2048]).unwrap();
        }
        let cfg = MonarchConfig::builder()
            .tier(
                TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                    .with_capacity(1 << 20),
            )
            .tier(TierConfig::posix("pfs", data.to_string_lossy().to_string()))
            .pool_threads(2)
            .prefetch_lookahead(8)
            .build();
        let json = CString::new(cfg.to_json()).unwrap();
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());

            // Unknown names are skipped; blank lines ignored.
            let plan = CString::new("f0\nf1\n\nf2\nghost\n").unwrap();
            assert_eq!(monarch_submit_plan(h, plan.as_ptr()), 3);
            assert_eq!(monarch_wait_idle(h), 0);

            // All three files were staged before any read.
            let v = section(h, "stats").expect("stats section");
            assert_eq!(v["prefetches_scheduled"], 3, "{v:?}");
            assert_eq!(v["copies_completed"], 3, "{v:?}");

            // Reads now hit the fast tier and count as prefetch hits.
            let name = CString::new("f1").unwrap();
            let mut buf = vec![0u8; 4096];
            assert_eq!(
                monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()),
                2048
            );
            let v = section(h, "stats").expect("stats section");
            assert_eq!(v["prefetch_hits"], 1, "{v:?}");

            // Nothing left queued, so cancelling withdraws zero.
            assert_eq!(monarch_cancel_plan(h), 0);

            // Argument validation.
            assert_eq!(
                monarch_submit_plan(h, ptr::null()),
                errcode::EINVAL as c_long
            );
            assert_eq!(
                monarch_submit_plan(ptr::null_mut(), plan.as_ptr()),
                errcode::EINVAL as c_long
            );
            assert_eq!(
                monarch_cancel_plan(ptr::null_mut()),
                errcode::EINVAL as c_long
            );

            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn serve_through_c_abi() {
        let (json, root, _) = staged_config("serve");
        unsafe {
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let addr = CString::new("127.0.0.1:0").unwrap();
            let port = monarch_serve_start(h, addr.as_ptr());
            assert!(port > 0, "expected a bound port, got {port}");
            // A second start while one runs is a config error.
            assert_eq!(
                monarch_serve_start(h, addr.as_ptr()),
                errcode::ECONFIG as c_long
            );

            // Scrape /metrics over plain TCP.
            let resp = http_get(port, "/metrics");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("monarch_tier_reads_total"), "{resp}");

            assert_eq!(monarch_serve_stop(h), 1);
            assert_eq!(
                monarch_serve_stop(h),
                0,
                "second stop finds nothing running"
            );

            // Argument validation.
            assert_eq!(
                monarch_serve_start(ptr::null_mut(), addr.as_ptr()),
                errcode::EINVAL as c_long
            );
            assert_eq!(
                monarch_serve_start(h, ptr::null()),
                errcode::EINVAL as c_long
            );
            assert_eq!(
                monarch_serve_stop(ptr::null_mut()),
                errcode::EINVAL as c_int
            );

            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cluster_config_and_stats_through_c_abi() {
        let (json, root, _) = staged_config("cluster");
        unsafe {
            // Chain monarch_configure calls to graft a single-node cluster
            // section onto a plain config, C-shim style.
            let key = CString::new("cluster.nodes").unwrap();
            let val = CString::new("127.0.0.1:0").unwrap();
            let step1 = monarch_configure(json.as_ptr(), key.as_ptr(), val.as_ptr());
            assert!(!step1.is_null());
            let key = CString::new("cluster.shard_seed").unwrap();
            let val = CString::new("42").unwrap();
            let step2 = monarch_configure(step1, key.as_ptr(), val.as_ptr());
            assert!(!step2.is_null());
            monarch_string_free(step1);

            let h = monarch_init_json(step2);
            assert!(!h.is_null());
            monarch_string_free(step2);

            // Single-node cluster: every file is self-owned, so reads stay
            // local, but the snapshot is live and carries the roster.
            let name = CString::new("f0").unwrap();
            let mut buf = vec![0u8; 4096];
            assert!(monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()) > 0);
            assert_eq!(monarch_wait_idle(h), 0);

            let v = section(h, "cluster").expect("cluster section");
            assert_eq!(v["shard_seed"], 42, "{v:?}");
            assert_eq!(v["nodes"].as_array().unwrap().len(), 1, "{v:?}");
            assert_eq!(v["peer_hits"], 0, "{v:?}");
            assert!(v.get("peer_fallbacks").is_some(), "{v:?}");

            // Health is always present: every hierarchy carries a breaker
            // per tier, closed while nothing has failed.
            let hv = section(h, "health").expect("health section");
            assert_eq!(hv["degraded"], false, "{hv:?}");
            assert_eq!(hv["tiers"][0]["state"], "closed", "{hv:?}");
            monarch_shutdown(h);

            // Unknown keys and unparsable values are rejected.
            let bad_key = CString::new("cluster.bogus").unwrap();
            assert!(monarch_configure(json.as_ptr(), bad_key.as_ptr(), val.as_ptr()).is_null());
            let key = CString::new("cluster.node_id").unwrap();
            let bad_val = CString::new("not-a-number").unwrap();
            assert!(monarch_configure(json.as_ptr(), key.as_ptr(), bad_val.as_ptr()).is_null());
            assert!(monarch_configure(ptr::null(), key.as_ptr(), val.as_ptr()).is_null());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn policy_keys_route_through_configure() {
        use monarch_core::config::{AdmissionKind, PolicyKind};
        let (json, root, _) = staged_config("policy-keys");
        let mut cfg = MonarchConfig::from_json(json.to_str().unwrap()).unwrap();
        assert!(apply_config_key(&mut cfg, "policy.kind", "learned").is_some());
        assert!(apply_config_key(&mut cfg, "policy.admission", "size_threshold:1048576").is_some());
        assert_eq!(cfg.policy, PolicyKind::Learned);
        assert_eq!(
            cfg.admission,
            AdmissionKind::SizeThreshold { max_bytes: 1 << 20 }
        );
        // Policy keys must not graft a cluster section as a side effect.
        assert!(cfg.cluster.is_none());
        // Unknown spellings are rejected.
        assert!(apply_config_key(&mut cfg, "policy.kind", "bogus").is_none());
        assert!(apply_config_key(&mut cfg, "policy.admission", "size_threshold:x").is_none());
        // And the composed config survives the C round trip.
        unsafe {
            let key = CString::new("policy.kind").unwrap();
            let val = CString::new("lru_evict").unwrap();
            let out = monarch_configure(json.as_ptr(), key.as_ptr(), val.as_ptr());
            assert!(!out.is_null());
            let back = MonarchConfig::from_json(CStr::from_ptr(out).to_str().unwrap()).unwrap();
            assert_eq!(back.policy, PolicyKind::LruEvict);
            monarch_string_free(out);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn error_codes() {
        let (json, root, _) = staged_config("errors");
        unsafe {
            assert!(monarch_init_json(ptr::null()).is_null());
            let bad = CString::new("{not json").unwrap();
            assert!(monarch_init_json(bad.as_ptr()).is_null());

            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let missing = CString::new("nope").unwrap();
            let mut buf = [0u8; 8];
            assert_eq!(
                monarch_read(h, missing.as_ptr(), 0, buf.as_mut_ptr(), buf.len()),
                errcode::ENOENT as c_long
            );
            assert_eq!(
                monarch_read(h, ptr::null(), 0, buf.as_mut_ptr(), buf.len()),
                errcode::EINVAL as c_long
            );
            let f0 = CString::new("f0").unwrap();
            assert_eq!(
                monarch_read(h, f0.as_ptr(), 0, ptr::null_mut(), 8),
                errcode::EINVAL as c_long
            );
            assert_eq!(
                monarch_file_size(h, missing.as_ptr()),
                errcode::ENOENT as c_long
            );
            monarch_shutdown(h);
            monarch_shutdown(ptr::null_mut()); // tolerated
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn null_handles_and_non_utf8_names_are_refused() {
        let (json, root, _) = staged_config("bad-args");
        let einval = errcode::EINVAL as c_long;
        let name = CString::new("f0").unwrap();
        let addr = CString::new("127.0.0.1:0").unwrap();
        let not_utf8 = [0xffu8, 0xfe, 0];
        let mut buf = [0u8; 8];
        unsafe {
            // Every entry point that takes a handle, with every other
            // argument valid.
            let null = ptr::null_mut();
            assert_eq!(
                monarch_read(null, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()),
                einval
            );
            assert_eq!(monarch_file_size(null, name.as_ptr()), einval);
            assert_eq!(monarch_file_count(null), einval);
            assert!(monarch_snapshot_json(null, ptr::null()).is_null());
            assert!(monarch_metrics_text(null).is_null());
            assert!(monarch_events_json(null).is_null());
            assert!(monarch_trace_json(null).is_null());
            assert_eq!(monarch_serve_start(null, addr.as_ptr()), einval);
            assert_eq!(monarch_serve_stop(null), einval as c_int);
            assert_eq!(monarch_submit_plan(null, name.as_ptr()), einval);
            assert_eq!(monarch_cancel_plan(null), einval);
            assert_eq!(monarch_wait_idle(null), einval as c_int);
            monarch_shutdown(null);

            // A live handle and a name that is not UTF-8.
            let h = monarch_init_json(json.as_ptr());
            assert!(!h.is_null());
            let bad = not_utf8.as_ptr().cast::<c_char>();
            assert_eq!(monarch_read(h, bad, 0, buf.as_mut_ptr(), buf.len()), einval);
            assert_eq!(monarch_file_size(h, bad), einval);
            assert_eq!(monarch_submit_plan(h, bad), einval);
            // The instance is unharmed.
            assert_eq!(
                monarch_read(h, name.as_ptr(), 0, buf.as_mut_ptr(), buf.len()),
                buf.len() as c_long
            );
            monarch_shutdown(h);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
