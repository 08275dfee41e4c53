//! `ch_mad` packet headers (paper Figure 5).
//!
//! Every `ch_mad` message is one Madeleine message whose first block is
//! the header, sent with `receive_EXPRESS` semantics (it contains the
//! data needed to unpack the body); the body, when present, follows
//! with `receive_CHEAPER` semantics. The header is a type field plus a
//! type-dependent buffer:
//!
//! | type              | buffer                                  | body |
//! |-------------------|------------------------------------------|------|
//! | `MAD_SHORT_PKT`   | the ADI short-packet head (envelope)     | yes  |
//! | `MAD_REQUEST_PKT` | envelope + sender-side transaction token | no   |
//! | `MAD_SENDOK_PKT`  | sender token + receiver `sync_address`   | no   |
//! | `MAD_RNDV_PKT`    | envelope + `sync_address`                | yes  |
//! | `MAD_TERM_PKT`    | empty                                    | no   |
//! | `MAD_FWD_PKT`     | final destination (forwarding extension) | wrapped packet |

use bytes::{BufMut, Bytes};

use crate::types::Envelope;

/// Stack capacity of [`Wire`]: the longest header, `MAD_RNDV_PKT`,
/// is 45 B.
const WIRE_CAP: usize = 64;

/// Fixed-size stack buffer a header is encoded into before its one
/// copy into a [`Bytes`].
struct Wire {
    buf: [u8; WIRE_CAP],
    n: usize,
}

impl Wire {
    fn new() -> Wire {
        Wire {
            buf: [0; WIRE_CAP],
            n: 0,
        }
    }

    fn freeze(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf[..self.n])
    }
}

impl BufMut for Wire {
    fn put_slice(&mut self, data: &[u8]) {
        self.buf[self.n..self.n + data.len()].copy_from_slice(data);
        self.n += data.len();
    }
}

/// Decoded `ch_mad` packet header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Packet {
    /// Eager-mode data message (`MAD_SHORT_PKT`).
    Short { env: Envelope },
    /// Rendezvous-mode request (`MAD_REQUEST_PKT`).
    Request { env: Envelope, sender_token: u64 },
    /// Rendezvous acknowledgement (`MAD_SENDOK_PKT`).
    SendOk {
        sender_token: u64,
        sync_address: u64,
    },
    /// Rendezvous-mode data message (`MAD_RNDV_PKT`). `offset`/`total`
    /// support chunked transfers across forwarding gateways (a direct
    /// transfer is the single chunk `offset = 0, total = env.len`).
    Rndv {
        env: Envelope,
        sync_address: u64,
        offset: u64,
        total: u64,
    },
    /// Program-termination message (`MAD_TERM_PKT`).
    Term,
    /// Forwarding wrapper (`MAD_FWD_PKT`, the §6 future-work extension):
    /// the *next* header block is the wrapped packet, to be relayed
    /// toward `final_dst` across gateway nodes.
    Fwd { final_dst: u32 },
}

const T_SHORT: u8 = 0;
const T_REQUEST: u8 = 1;
const T_SENDOK: u8 = 2;
const T_RNDV: u8 = 3;
const T_TERM: u8 = 4;
const T_FWD: u8 = 5;

fn put_env(buf: &mut impl BufMut, env: &Envelope) {
    buf.put_u32_le(env.src as u32);
    buf.put_i32_le(env.tag);
    buf.put_u32_le(env.context);
    buf.put_u64_le(env.len as u64);
}

fn get_env(b: &[u8]) -> (Envelope, &[u8]) {
    let src = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    let tag = i32::from_le_bytes(b[4..8].try_into().unwrap());
    let context = u32::from_le_bytes(b[8..12].try_into().unwrap());
    let len = u64::from_le_bytes(b[12..20].try_into().unwrap()) as usize;
    (
        Envelope {
            src,
            tag,
            context,
            len,
        },
        &b[20..],
    )
}

fn get_u64(b: &[u8]) -> (u64, &[u8]) {
    (u64::from_le_bytes(b[0..8].try_into().unwrap()), &b[8..])
}

impl Packet {
    /// Wire-protocol name of the packet kind (trace-event labels).
    pub fn kind(&self) -> &'static str {
        match self {
            Packet::Short { .. } => "SHORT",
            Packet::Request { .. } => "REQUEST",
            Packet::SendOk { .. } => "SENDOK",
            Packet::Rndv { .. } => "RNDV",
            Packet::Term => "TERM",
            Packet::Fwd { .. } => "FWD",
        }
    }

    /// Serialize the header. Encodes into a stack buffer and copies
    /// once into a [`Bytes`]. The eager-path headers (SHORT 21 B,
    /// SENDOK 17 B, TERM, FWD) fit inside the handle and cost no heap
    /// allocation; REQUEST (29 B) and RNDV (45 B) allocate one buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = Wire::new();
        match self {
            Packet::Short { env } => {
                buf.put_u8(T_SHORT);
                put_env(&mut buf, env);
            }
            Packet::Request { env, sender_token } => {
                buf.put_u8(T_REQUEST);
                put_env(&mut buf, env);
                buf.put_u64_le(*sender_token);
            }
            Packet::SendOk {
                sender_token,
                sync_address,
            } => {
                buf.put_u8(T_SENDOK);
                buf.put_u64_le(*sender_token);
                buf.put_u64_le(*sync_address);
            }
            Packet::Rndv {
                env,
                sync_address,
                offset,
                total,
            } => {
                buf.put_u8(T_RNDV);
                put_env(&mut buf, env);
                buf.put_u64_le(*sync_address);
                buf.put_u64_le(*offset);
                buf.put_u64_le(*total);
            }
            Packet::Term => {
                buf.put_u8(T_TERM);
            }
            Packet::Fwd { final_dst } => {
                buf.put_u8(T_FWD);
                buf.put_u32_le(*final_dst);
            }
        }
        buf.freeze()
    }

    /// Parse a header. Trailing bytes (the padded inline buffer of the
    /// non-split ablation) are permitted and ignored here.
    pub fn decode(bytes: &[u8]) -> Packet {
        match bytes[0] {
            T_SHORT => {
                let (env, _) = get_env(&bytes[1..]);
                Packet::Short { env }
            }
            T_REQUEST => {
                let (env, rest) = get_env(&bytes[1..]);
                let (sender_token, _) = get_u64(rest);
                Packet::Request { env, sender_token }
            }
            T_SENDOK => {
                let (sender_token, rest) = get_u64(&bytes[1..]);
                let (sync_address, _) = get_u64(rest);
                Packet::SendOk {
                    sender_token,
                    sync_address,
                }
            }
            T_RNDV => {
                let (env, rest) = get_env(&bytes[1..]);
                let (sync_address, rest) = get_u64(rest);
                let (offset, rest) = get_u64(rest);
                let (total, _) = get_u64(rest);
                Packet::Rndv {
                    env,
                    sync_address,
                    offset,
                    total,
                }
            }
            T_TERM => Packet::Term,
            T_FWD => Packet::Fwd {
                final_dst: u32::from_le_bytes(bytes[1..5].try_into().unwrap()),
            },
            t => panic!("unknown ch_mad packet type {t}"),
        }
    }

    /// Byte offset of the inline payload in a non-split short packet
    /// (header fields come first, then the fixed-size buffer).
    pub fn short_header_len() -> usize {
        21
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        Envelope {
            src: 7,
            tag: -3,
            context: 42,
            len: 1234,
        }
    }

    #[test]
    fn round_trip_all_types() {
        let packets = [
            Packet::Short { env: env() },
            Packet::Request {
                env: env(),
                sender_token: 0xdead_beef,
            },
            Packet::SendOk {
                sender_token: 1,
                sync_address: u64::MAX,
            },
            Packet::Rndv {
                env: env(),
                sync_address: 99,
                offset: 1 << 40,
                total: u64::MAX,
            },
            Packet::Term,
            Packet::Fwd { final_dst: 12345 },
        ];
        for p in packets {
            let enc = p.encode();
            assert_eq!(Packet::decode(&enc), p, "round trip failed for {p:?}");
        }
    }

    #[test]
    fn decode_ignores_trailing_padding() {
        let mut bytes = Packet::Short { env: env() }.encode().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(Packet::decode(&bytes), Packet::Short { env: env() });
    }

    #[test]
    fn short_header_len_matches_encoding() {
        let enc = Packet::Short { env: env() }.encode();
        assert_eq!(enc.len(), Packet::short_header_len());
    }

    #[test]
    fn headers_are_small() {
        // The whole point of the split-short optimization is that the
        // header is tiny; make sure it stays that way.
        for p in [
            Packet::Short { env: env() },
            Packet::Request {
                env: env(),
                sender_token: 0,
            },
            Packet::SendOk {
                sender_token: 0,
                sync_address: 0,
            },
            Packet::Rndv {
                env: env(),
                sync_address: 0,
                offset: 0,
                total: 0,
            },
            Packet::Term,
            Packet::Fwd { final_dst: 0 },
        ] {
            assert!(p.encode().len() <= 53, "{p:?} header too large");
        }
    }
}
