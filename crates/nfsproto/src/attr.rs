//! NFS v2 file attributes and status codes.
//!
//! Every successful NFS v2 reply that touches a file carries a full [`Fattr`]
//! attribute block back to the client.  The paper leans on this: a gathering
//! server answers a burst of writes with replies that all carry the *same*
//! file modification time, because a single metadata update covered them all
//! (§6, "all the replies have the same file modify time in the returned file
//! attributes").

use wg_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder, XdrError};

/// NFS v2 status codes (RFC 1094 "stat").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NfsStatus {
    /// The call completed successfully.
    Ok,
    /// Not owner.
    Perm,
    /// No such file or directory.
    NoEnt,
    /// I/O error.
    Io,
    /// Permission denied.
    Access,
    /// File exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// File too large.
    FBig,
    /// No space left on device — the error sync-on-close exists to surface.
    NoSpc,
    /// Read-only filesystem.
    Rofs,
    /// File name too long.
    NameTooLong,
    /// Directory not empty.
    NotEmpty,
    /// Disk quota exceeded.
    Dquot,
    /// Invalid (stale) file handle: the file referred to no longer exists.
    Stale,
    /// Lock conflict or bad seqid — the state operation was refused (the
    /// NFSv4 NFS4ERR_DENIED code, grafted onto the v2 table like COMMIT is).
    Denied,
    /// The client's lease has expired; its state was revoked and it must
    /// re-register (NFS4ERR_EXPIRED).
    Expired,
    /// The server is in its post-crash grace period: only reclaims are
    /// admitted, new state requests must be retried after it ends
    /// (NFS4ERR_GRACE).
    Grace,
    /// A READDIR `count` too small to hold even one entry (the NFSv3
    /// NFS3ERR_TOOSMALL code): answering with an empty, non-final page
    /// instead would make the client loop on the same cookie.
    TooSmall,
}

impl NfsStatus {
    /// The RFC 1094 numeric value.
    pub fn code(self) -> u32 {
        match self {
            NfsStatus::Ok => 0,
            NfsStatus::Perm => 1,
            NfsStatus::NoEnt => 2,
            NfsStatus::Io => 5,
            NfsStatus::Access => 13,
            NfsStatus::Exist => 17,
            NfsStatus::NotDir => 20,
            NfsStatus::IsDir => 21,
            NfsStatus::FBig => 27,
            NfsStatus::NoSpc => 28,
            NfsStatus::Rofs => 30,
            NfsStatus::NameTooLong => 63,
            NfsStatus::NotEmpty => 66,
            NfsStatus::Dquot => 69,
            NfsStatus::Stale => 70,
            NfsStatus::Denied => 10010,
            NfsStatus::Expired => 10011,
            NfsStatus::Grace => 10013,
            NfsStatus::TooSmall => 10018,
        }
    }

    /// Parse the RFC 1094 numeric value.
    pub fn from_code(code: u32) -> Result<Self, XdrError> {
        Ok(match code {
            0 => NfsStatus::Ok,
            1 => NfsStatus::Perm,
            2 => NfsStatus::NoEnt,
            5 => NfsStatus::Io,
            13 => NfsStatus::Access,
            17 => NfsStatus::Exist,
            20 => NfsStatus::NotDir,
            21 => NfsStatus::IsDir,
            27 => NfsStatus::FBig,
            28 => NfsStatus::NoSpc,
            30 => NfsStatus::Rofs,
            63 => NfsStatus::NameTooLong,
            66 => NfsStatus::NotEmpty,
            69 => NfsStatus::Dquot,
            70 => NfsStatus::Stale,
            10010 => NfsStatus::Denied,
            10011 => NfsStatus::Expired,
            10013 => NfsStatus::Grace,
            10018 => NfsStatus::TooSmall,
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "NfsStatus",
                    value: other,
                })
            }
        })
    }

    /// `true` for the success status.
    pub fn is_ok(self) -> bool {
        self == NfsStatus::Ok
    }
}

impl XdrEncode for NfsStatus {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.code());
    }
}

impl XdrDecode for NfsStatus {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        NfsStatus::from_code(dec.get_u32()?)
    }
}

/// NFS v2 file types ("ftype").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FileType {
    /// A non-file (the null type).
    None,
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
    /// A block special device.
    BlockDev,
    /// A character special device.
    CharDev,
    /// A symbolic link.
    Symlink,
}

impl FileType {
    fn code(self) -> u32 {
        match self {
            FileType::None => 0,
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::BlockDev => 3,
            FileType::CharDev => 4,
            FileType::Symlink => 5,
        }
    }

    fn from_code(code: u32) -> Result<Self, XdrError> {
        Ok(match code {
            0 => FileType::None,
            1 => FileType::Regular,
            2 => FileType::Directory,
            3 => FileType::BlockDev,
            4 => FileType::CharDev,
            5 => FileType::Symlink,
            other => {
                return Err(XdrError::InvalidEnum {
                    type_name: "FileType",
                    value: other,
                })
            }
        })
    }
}

impl XdrEncode for FileType {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.code());
    }
}

impl XdrDecode for FileType {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        FileType::from_code(dec.get_u32()?)
    }
}

/// An NFS v2 timestamp: seconds and microseconds.
#[derive(
    Clone,
    Copy,
    Debug,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Timeval {
    /// Whole seconds.
    pub seconds: u32,
    /// Microseconds within the second.
    pub useconds: u32,
}

impl Timeval {
    /// Build a timestamp from a nanosecond count (e.g. a simulation clock
    /// reading), truncating to microsecond resolution as the protocol does.
    pub fn from_nanos(ns: u64) -> Self {
        let us = ns / 1_000;
        Timeval {
            seconds: (us / 1_000_000) as u32,
            useconds: (us % 1_000_000) as u32,
        }
    }
}

impl XdrEncode for Timeval {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.seconds);
        enc.put_u32(self.useconds);
    }
}

impl XdrDecode for Timeval {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Timeval {
            seconds: dec.get_u32()?,
            useconds: dec.get_u32()?,
        })
    }
}

/// The full NFS v2 file attribute block ("fattr") returned by most replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Fattr {
    /// File type.
    pub ftype: FileType,
    /// Protection mode bits.
    pub mode: u32,
    /// Hard link count.
    pub nlink: u32,
    /// Owner user id.
    pub uid: u32,
    /// Owner group id.
    pub gid: u32,
    /// File size in bytes.
    pub size: u32,
    /// Preferred block size.
    pub blocksize: u32,
    /// Device number for special files.
    pub rdev: u32,
    /// Number of disk blocks used.
    pub blocks: u32,
    /// Filesystem identifier.
    pub fsid: u32,
    /// Inode number.
    pub fileid: u32,
    /// Last access time.
    pub atime: Timeval,
    /// Last modification time — the field write gathering causes to be shared
    /// across a burst of replies.
    pub mtime: Timeval,
    /// Last status change time.
    pub ctime: Timeval,
}

impl Default for Fattr {
    fn default() -> Self {
        Fattr {
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            blocksize: 8192,
            rdev: 0,
            blocks: 0,
            fsid: 0,
            fileid: 0,
            atime: Timeval::default(),
            mtime: Timeval::default(),
            ctime: Timeval::default(),
        }
    }
}

impl XdrEncode for Fattr {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.ftype.encode(enc);
        enc.put_u32(self.mode);
        enc.put_u32(self.nlink);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.size);
        enc.put_u32(self.blocksize);
        enc.put_u32(self.rdev);
        enc.put_u32(self.blocks);
        enc.put_u32(self.fsid);
        enc.put_u32(self.fileid);
        self.atime.encode(enc);
        self.mtime.encode(enc);
        self.ctime.encode(enc);
    }
}

impl XdrDecode for Fattr {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Fattr {
            ftype: FileType::decode(dec)?,
            mode: dec.get_u32()?,
            nlink: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u32()?,
            blocksize: dec.get_u32()?,
            rdev: dec.get_u32()?,
            blocks: dec.get_u32()?,
            fsid: dec.get_u32()?,
            fileid: dec.get_u32()?,
            atime: Timeval::decode(dec)?,
            mtime: Timeval::decode(dec)?,
            ctime: Timeval::decode(dec)?,
        })
    }
}

/// Settable attributes ("sattr") supplied on CREATE and SETATTR; `u32::MAX`
/// in any field means "do not change".
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Sattr {
    /// Protection mode bits, or `u32::MAX` to leave unchanged.
    pub mode: u32,
    /// Owner uid, or `u32::MAX`.
    pub uid: u32,
    /// Owner gid, or `u32::MAX`.
    pub gid: u32,
    /// New size (0 truncates), or `u32::MAX`.
    pub size: u32,
    /// New access time.
    pub atime: Timeval,
    /// New modification time.
    pub mtime: Timeval,
}

impl Default for Sattr {
    fn default() -> Self {
        Sattr {
            mode: u32::MAX,
            uid: u32::MAX,
            gid: u32::MAX,
            size: u32::MAX,
            atime: Timeval::default(),
            mtime: Timeval::default(),
        }
    }
}

impl Sattr {
    /// A sattr that sets only the mode, as a typical CREATE does.
    pub fn with_mode(mode: u32) -> Self {
        Sattr {
            mode,
            ..Sattr::default()
        }
    }
}

impl XdrEncode for Sattr {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.mode);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.size);
        self.atime.encode(enc);
        self.mtime.encode(enc);
    }
}

impl XdrDecode for Sattr {
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Sattr {
            mode: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u32()?,
            atime: Timeval::decode(dec)?,
            mtime: Timeval::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_xdr::{from_bytes, to_bytes};

    #[test]
    fn status_codes_match_rfc1094() {
        assert_eq!(NfsStatus::Ok.code(), 0);
        assert_eq!(NfsStatus::NoEnt.code(), 2);
        assert_eq!(NfsStatus::NoSpc.code(), 28);
        assert_eq!(NfsStatus::Stale.code(), 70);
        assert!(NfsStatus::Ok.is_ok());
        assert!(!NfsStatus::Io.is_ok());
    }

    #[test]
    fn status_roundtrip_all_variants() {
        for s in [
            NfsStatus::Ok,
            NfsStatus::Perm,
            NfsStatus::NoEnt,
            NfsStatus::Io,
            NfsStatus::Access,
            NfsStatus::Exist,
            NfsStatus::NotDir,
            NfsStatus::IsDir,
            NfsStatus::FBig,
            NfsStatus::NoSpc,
            NfsStatus::Rofs,
            NfsStatus::NameTooLong,
            NfsStatus::NotEmpty,
            NfsStatus::Dquot,
            NfsStatus::Stale,
            NfsStatus::Denied,
            NfsStatus::Expired,
            NfsStatus::Grace,
            NfsStatus::TooSmall,
        ] {
            assert_eq!(NfsStatus::from_code(s.code()).unwrap(), s);
            let bytes = to_bytes(&s);
            assert_eq!(from_bytes::<NfsStatus>(&bytes).unwrap(), s);
        }
        assert!(NfsStatus::from_code(999).is_err());
    }

    #[test]
    fn filetype_roundtrip() {
        for t in [
            FileType::None,
            FileType::Regular,
            FileType::Directory,
            FileType::BlockDev,
            FileType::CharDev,
            FileType::Symlink,
        ] {
            let bytes = to_bytes(&t);
            assert_eq!(from_bytes::<FileType>(&bytes).unwrap(), t);
        }
        assert!(FileType::from_code(42).is_err());
    }

    #[test]
    fn timeval_from_nanos() {
        let t = Timeval::from_nanos(3_000_123_456);
        assert_eq!(t.seconds, 3);
        assert_eq!(t.useconds, 123);
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 8);
        assert_eq!(from_bytes::<Timeval>(&bytes).unwrap(), t);
    }

    #[test]
    fn fattr_roundtrip_and_wire_size() {
        let attr = Fattr {
            size: 81920,
            blocks: 160,
            fileid: 77,
            mtime: Timeval {
                seconds: 12,
                useconds: 34,
            },
            ..Fattr::default()
        };
        let bytes = to_bytes(&attr);
        // 17 32-bit words per RFC 1094: ftype + 10 scalar fields + 3 timevals.
        assert_eq!(bytes.len(), 68);
        assert_eq!(from_bytes::<Fattr>(&bytes).unwrap(), attr);
    }

    #[test]
    fn sattr_defaults_mean_no_change() {
        let s = Sattr::default();
        assert_eq!(s.mode, u32::MAX);
        assert_eq!(s.size, u32::MAX);
        let with_mode = Sattr::with_mode(0o600);
        assert_eq!(with_mode.mode, 0o600);
        assert_eq!(with_mode.uid, u32::MAX);
        let bytes = to_bytes(&with_mode);
        assert_eq!(from_bytes::<Sattr>(&bytes).unwrap(), with_mode);
    }
}
