//! Unit tests backfilling the typed ADIO API surface: the `OpenOptions`
//! builder, `DriverKind` string round-trips, the `source()` chain
//! threaded through `AdioError::Io`, and the DAFS driver's edge cases.

use std::error::Error;
use std::str::FromStr;

use mpio_dafs::mpiio::{AdioError, Backend, DriverKind, IoFault, OpenMode, OpenOptions, Testbed};
use mpio_dafs::nfsv3::NfsError;

#[test]
fn driver_kind_round_trips_through_strings() {
    for k in [DriverKind::Dafs, DriverKind::Nfs, DriverKind::Ufs] {
        assert_eq!(DriverKind::from_str(k.as_str()), Ok(k));
        assert_eq!(
            DriverKind::from_str(&k.to_string()),
            Ok(k),
            "Display agrees"
        );
    }
    // Case-insensitive on the way in; canonical lowercase on the way out.
    assert_eq!(DriverKind::from_str("DAFS"), Ok(DriverKind::Dafs));
    assert_eq!(DriverKind::Dafs.as_str(), "dafs");
    assert!(DriverKind::from_str("pvfs").is_err());
    assert!(DriverKind::from_str("").is_err());
}

#[test]
fn open_options_default_is_plain_open_of_existing_file() {
    let tb = Testbed::new(Backend::ufs());
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        // Defaults: no create, no delete-on-close.
        let err = OpenOptions::new()
            .open(ctx, adio, &host, "/missing")
            .unwrap_err();
        assert_eq!(err, AdioError::NoSuchFile);
        let _ = comm;
    });
}

#[test]
fn open_options_overrides_take_effect() {
    let tb = Testbed::new(Backend::ufs());
    let fs = tb.fs.clone();
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        // create(true) materialises the file; it persists after close.
        let f = OpenOptions::new()
            .create(true)
            .open(ctx, adio, &host, "/kept")
            .unwrap();
        f.close(ctx, adio).unwrap();
        OpenOptions::new()
            .open(ctx, adio, &host, "/kept")
            .unwrap()
            .close(ctx, adio)
            .unwrap();
        // delete_on_close(true) removes it at close.
        let f = OpenOptions::new()
            .create(true)
            .delete_on_close(true)
            .open(ctx, adio, &host, "/scratch")
            .unwrap();
        f.close(ctx, adio).unwrap();
        assert_eq!(
            OpenOptions::new()
                .open(ctx, adio, &host, "/scratch")
                .unwrap_err(),
            AdioError::NoSuchFile
        );
        // mode() replaces the whole mode in one call.
        let f = OpenOptions::new()
            .mode(OpenMode::create())
            .open(ctx, adio, &host, "/via-mode")
            .unwrap();
        f.close(ctx, adio).unwrap();
        // Later setters override earlier ones.
        let err = OpenOptions::new()
            .create(true)
            .create(false)
            .open(ctx, adio, &host, "/never-created")
            .unwrap_err();
        assert_eq!(err, AdioError::NoSuchFile);
        let _ = comm;
    });
    assert!(fs.resolve("/kept").is_ok());
    assert!(fs.resolve("/via-mode").is_ok());
    assert!(fs.resolve("/scratch").is_err());
    assert!(fs.resolve("/never-created").is_err());
}

#[test]
fn adio_error_source_chains_to_the_driver_error() {
    let e = AdioError::Io(IoFault::Nfs(NfsError::TimedOut));
    let fault = e.source().expect("Io must expose its fault");
    let inner = fault
        .source()
        .expect("the fault must expose the driver error");
    assert!(
        inner.downcast_ref::<NfsError>().is_some(),
        "chain must bottom out at the driver's own error type"
    );
    assert!(inner.source().is_none(), "TimedOut is a leaf");
    // Non-Io variants are leaves.
    assert!(AdioError::NoSuchFile.source().is_none());
    assert!(AdioError::Io(IoFault::Protocol)
        .source()
        .unwrap()
        .source()
        .is_none());
}

#[test]
fn dafs_zero_length_io_is_wire_free_and_missing_delete_fails() {
    let tb = Testbed::new(Backend::dafs());
    tb.run(1, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = adio.open(ctx, "/z", true).unwrap();
        let buf = host.mem.alloc(4096);
        host.mem.fill(buf, 4096, 0x5A);
        f.write_contig(ctx, 0, buf, 4096).unwrap();
        let ops = ctx.metrics().counter("dafs.ops");
        let before = ops.get();
        // A zero-length write and a zero-length batch entry are no-ops:
        // nothing reaches the wire, and the rest of the batch still lands.
        f.write_contig(ctx, 100, buf, 0).unwrap();
        assert_eq!(ops.get(), before, "zero-length write_contig sent a request");
        assert_eq!(f.read_batch(ctx, &[(0, buf, 0)]).unwrap(), 0);
        assert_eq!(ops.get(), before, "zero-length read_batch sent a request");
        let dst = host.mem.alloc(4096);
        assert_eq!(
            f.read_batch(ctx, &[(0, dst, 0), (0, dst, 4096)]).unwrap(),
            4096
        );
        assert_eq!(host.mem.read_vec(dst, 4096), vec![0x5A; 4096]);
        assert_eq!(ops.get(), before + 1, "one request for the one real entry");
        assert_eq!(adio.delete(ctx, "/missing"), Err(AdioError::NoSuchFile));
        adio.delete(ctx, "/z").unwrap();
        assert_eq!(adio.delete(ctx, "/z"), Err(AdioError::NoSuchFile));
    });
}
