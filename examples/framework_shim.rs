//! The "6 lines of TensorFlow" integration (paper §III-C), demonstrated
//! against the C ABI exactly as a DL framework's POSIX storage driver
//! would use it: initialise from a JSON config, replace `pread` with
//! `monarch_read`, query stats, shut down.
//!
//! Run with: `cargo run --release --example framework_shim`

use std::ffi::CString;

use monarch::core::config::{MonarchConfig, TierConfig};
use monarch::tfrecord::synth::{generate, DatasetSpec};
use monarch_ffi::{
    monarch_file_count, monarch_init_json, monarch_read, monarch_shutdown, monarch_snapshot_json,
    monarch_string_free, monarch_wait_idle,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("monarch-shim-{}", std::process::id()));
    let pfs_dir = root.join("pfs");
    let _ = std::fs::remove_dir_all(&root);
    let ds = generate(&DatasetSpec::miniature(2 << 20, 128, 3), &pfs_dir)?;

    // What the framework's config file would contain.
    let cfg = MonarchConfig::builder()
        .tier(
            TierConfig::posix("ssd", root.join("ssd").to_string_lossy().to_string())
                .with_capacity(ds.total_bytes),
        )
        .tier(TierConfig::posix(
            "pfs",
            pfs_dir.to_string_lossy().to_string(),
        ))
        .pool_threads(6)
        .build();
    let json = CString::new(cfg.to_json())?;

    // --- the six lines a framework driver adds -------------------------
    unsafe {
        let m = monarch_init_json(json.as_ptr()); // 1: instantiate
        assert!(!m.is_null());
        println!("namespace: {} files", monarch_file_count(m)); // 2: (sanity)

        let mut buf = vec![0u8; 256 << 10];
        for epoch in 1..=2 {
            for shard in &ds.shards {
                let name = CString::new(shard.file_name().unwrap().to_string_lossy().as_bytes())?;
                let mut offset = 0u64;
                loop {
                    // 3: pread(fd, buf, len, off) → monarch_read(m, name, off, buf, len)
                    let n = monarch_read(m, name.as_ptr(), offset, buf.as_mut_ptr(), buf.len());
                    assert!(n >= 0, "monarch_read failed: {n}");
                    if n == 0 {
                        break;
                    }
                    offset += n as u64;
                }
            }
            monarch_wait_idle(m); // 4: drain background copies (teardown only)
            let stats = monarch_snapshot_json(m, c"stats".as_ptr()); // 5: observability
            let s = std::ffi::CStr::from_ptr(stats).to_str()?.to_string();
            monarch_string_free(stats);
            println!("epoch {epoch} stats: {s}");
        }
        monarch_shutdown(m); // 6: teardown
    }
    // --------------------------------------------------------------------

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
