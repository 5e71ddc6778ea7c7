//! Wire encodings for GRIP and GRRP messages.
//!
//! MDS-2.1 mapped GRRP onto LDAP add operations "for pragmatic reasons"
//! (§10.1); analogously, we reuse the LDAP substrate's codec primitives so
//! both protocols share one frame format. [`ProtocolMessage`] is the
//! top-level frame carried by the runtimes.

use crate::grip::{GripReply, GripRequest, ResultCode, SearchSpec, SubscriptionMode, SyncCookie};
use crate::grrp::{GrrpMessage, Notification};
use crate::trace::{TraceContext, TraceId};
use bytes::{BufMut, BytesMut};
use gis_ldap::codec::{put_str, put_varint, Wire, WireReader};
use gis_ldap::{Dn, Entry, Filter, LdapError, LdapUrl, Result, Scope};
use gis_netsim::{SimDuration, SimTime};

/// Top-level protocol frame: everything that travels between information
/// service components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolMessage {
    /// A GRIP request (client to server).
    Request(GripRequest),
    /// A GRIP reply (server to client).
    Reply(GripReply),
    /// A GRRP notification (provider to directory, or directory inviting).
    Grrp(GrrpMessage),
    /// A traced frame: any other frame wrapped with the request-scoped
    /// trace context it travels under. Receivers unwrap the envelope,
    /// open a span parented on `ctx.parent`, and propagate the context on
    /// any frames the request fans out into.
    Traced {
        /// The trace context accompanying the inner frame.
        ctx: TraceContext,
        /// The wrapped frame.
        inner: Box<ProtocolMessage>,
    },
    /// Connection-scoped mutual-auth handshake (§7). Exchanged before
    /// any GRIP/GRRP traffic on a connection; never mux-enveloped and
    /// never traced (it authenticates the *connection*, not a request).
    /// Usage is policy-gated like the mux envelope is version-gated:
    /// anonymous clients send no `Hello`, and a server never sends a
    /// handshake frame unsolicited, so an all-anonymous deployment sees
    /// no handshake bytes at all.
    Handshake(Handshake),
}

/// An effect a service engine asks its runtime to carry out: the one
/// effect list every GRIS and GIIS entry point returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a GRIP request to another server (chained query or pull).
    SendRequest {
        /// Target server.
        to: LdapUrl,
        /// The request (its id is engine-generated and unique).
        request: GripRequest,
        /// When present, the request belongs to a traced query: the
        /// runtime wraps it in [`ProtocolMessage::Traced`] so the
        /// target's spans join the same causal tree.
        trace: Option<TraceContext>,
    },
    /// Send a GRRP message (a registration or an invitation).
    SendGrrp {
        /// Target server.
        to: LdapUrl,
        /// The notification.
        message: GrrpMessage,
    },
    /// Deliver a reply to a connected client.
    Reply {
        /// The client (an id the runtime assigned its connection).
        client: u64,
        /// The reply.
        reply: GripReply,
    },
}

/// The mutual-auth handshake frames (§7: "GSI public-key security
/// mechanisms are used to verify credentials and to achieve mutual
/// authentication between information consumers and information
/// providers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    /// Client → server, first frame on the connection: the client's
    /// bind token (`gis-gsi` `BindToken` bytes: cert chain +
    /// proof-of-possession targeting the service's URL).
    Hello {
        /// Serialized bind token.
        token: Vec<u8>,
    },
    /// Server → client on a verified `Hello`: the subject the server
    /// authenticated, plus the server's own bind token targeting that
    /// subject (mutual auth — the client verifies the service identity
    /// it dialed is the one that answered). Empty when the server holds
    /// no credential.
    Welcome {
        /// The client subject as the server verified it.
        subject: String,
        /// The server's bind token proving its own identity to the
        /// client; empty when the server has no credential.
        token: Vec<u8>,
    },
    /// Server → client: the handshake failed; the connection is closed
    /// after this frame. `AuthRejected` means the token did not verify;
    /// `UnwillingToPerform` means the server has no authenticator and
    /// cannot satisfy a client that demands mutual auth.
    Reject {
        /// Why the handshake failed.
        code: ResultCode,
    },
}

impl ProtocolMessage {
    /// Wrap `self` in a traced envelope (flattening is intentional: a
    /// re-wrap replaces the context rather than nesting).
    pub fn traced(self, ctx: TraceContext) -> ProtocolMessage {
        match self {
            ProtocolMessage::Traced { inner, .. } => ProtocolMessage::Traced { ctx, inner },
            other => ProtocolMessage::Traced {
                ctx,
                inner: Box::new(other),
            },
        }
    }

    /// Split a frame into its optional trace context and inner message.
    pub fn untraced(self) -> (Option<TraceContext>, ProtocolMessage) {
        match self {
            ProtocolMessage::Traced { ctx, inner } => (Some(ctx), *inner),
            other => (None, other),
        }
    }
}

// `SimTime`/`SimDuration` are foreign to both this crate and the codec
// trait's crate, so they get helper functions rather than `Wire` impls.

fn put_time(buf: &mut BytesMut, t: SimTime) {
    put_varint(buf, t.micros());
}

fn read_time(r: &mut WireReader<'_>) -> Result<SimTime> {
    Ok(SimTime(r.read_varint()?))
}

fn put_duration(buf: &mut BytesMut, d: SimDuration) {
    put_varint(buf, d.micros());
}

fn read_duration(r: &mut WireReader<'_>) -> Result<SimDuration> {
    Ok(SimDuration(r.read_varint()?))
}

impl Wire for Notification {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            Notification::Register => 0,
            Notification::Invite => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Notification> {
        match r.read_u8()? {
            0 => Ok(Notification::Register),
            1 => Ok(Notification::Invite),
            b => Err(LdapError::Codec(format!("bad notification tag {b}"))),
        }
    }
}

impl Wire for GrrpMessage {
    fn encode(&self, buf: &mut BytesMut) {
        self.notification.encode(buf);
        self.service_url.encode(buf);
        self.namespace.encode(buf);
        put_time(buf, self.valid_from);
        put_time(buf, self.valid_until);
        self.reply_to.encode(buf);
        self.subject.encode(buf);
        match &self.signature {
            None => buf.put_u8(0),
            Some(sig) => {
                buf.put_u8(1);
                gis_ldap::codec::put_bytes(buf, sig);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<GrrpMessage> {
        Ok(GrrpMessage {
            notification: Notification::decode(r)?,
            service_url: LdapUrl::decode(r)?,
            namespace: Dn::decode(r)?,
            valid_from: read_time(r)?,
            valid_until: read_time(r)?,
            reply_to: Option::<LdapUrl>::decode(r)?,
            subject: Option::<String>::decode(r)?,
            signature: match r.read_u8()? {
                0 => None,
                1 => Some(r.read_bytes()?.to_vec()),
                b => return Err(LdapError::Codec(format!("bad signature tag {b}"))),
            },
        })
    }
}

impl Wire for ResultCode {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            ResultCode::Success => 0,
            ResultCode::NoSuchObject => 1,
            ResultCode::SizeLimitExceeded => 2,
            ResultCode::InsufficientAccess => 3,
            ResultCode::Unavailable => 4,
            ResultCode::PartialResults => 5,
            ResultCode::UnwillingToPerform => 6,
            ResultCode::StaleResults => 7,
            ResultCode::AuthRejected => 8,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<ResultCode> {
        Ok(match r.read_u8()? {
            0 => ResultCode::Success,
            1 => ResultCode::NoSuchObject,
            2 => ResultCode::SizeLimitExceeded,
            3 => ResultCode::InsufficientAccess,
            4 => ResultCode::Unavailable,
            5 => ResultCode::PartialResults,
            6 => ResultCode::UnwillingToPerform,
            7 => ResultCode::StaleResults,
            8 => ResultCode::AuthRejected,
            b => return Err(LdapError::Codec(format!("bad result code {b}"))),
        })
    }
}

impl Wire for SubscriptionMode {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SubscriptionMode::Periodic(d) => {
                buf.put_u8(0);
                put_duration(buf, *d);
            }
            SubscriptionMode::OnChange => buf.put_u8(1),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<SubscriptionMode> {
        match r.read_u8()? {
            0 => Ok(SubscriptionMode::Periodic(read_duration(r)?)),
            1 => Ok(SubscriptionMode::OnChange),
            b => Err(LdapError::Codec(format!("bad subscription mode {b}"))),
        }
    }
}

impl Wire for SearchSpec {
    fn encode(&self, buf: &mut BytesMut) {
        self.base.encode(buf);
        self.scope.encode(buf);
        self.filter.encode(buf);
        self.attrs.encode(buf);
        put_varint(buf, u64::from(self.size_limit));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<SearchSpec> {
        Ok(SearchSpec {
            base: Dn::decode(r)?,
            scope: Scope::decode(r)?,
            filter: Filter::decode(r)?,
            attrs: Vec::<String>::decode(r)?,
            size_limit: u32::try_from(r.read_varint()?)
                .map_err(|_| LdapError::Codec("size limit overflow".into()))?,
        })
    }
}

impl Wire for GripRequest {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GripRequest::Bind { id, subject, token } => {
                buf.put_u8(0);
                put_varint(buf, *id);
                put_str(buf, subject);
                gis_ldap::codec::put_bytes(buf, token);
            }
            GripRequest::Search { id, spec } => {
                buf.put_u8(1);
                put_varint(buf, *id);
                spec.encode(buf);
            }
            GripRequest::Subscribe { id, spec, mode } => {
                buf.put_u8(2);
                put_varint(buf, *id);
                spec.encode(buf);
                mode.encode(buf);
            }
            GripRequest::Unsubscribe { id } => {
                buf.put_u8(3);
                put_varint(buf, *id);
            }
            GripRequest::SyncPull {
                id,
                cookie,
                subtrees,
            } => {
                buf.put_u8(4);
                put_varint(buf, *id);
                match cookie {
                    None => buf.put_u8(0),
                    Some(c) => {
                        buf.put_u8(1);
                        put_varint(buf, c.epoch);
                        put_varint(buf, c.version);
                    }
                }
                subtrees.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<GripRequest> {
        match r.read_u8()? {
            0 => Ok(GripRequest::Bind {
                id: r.read_varint()?,
                subject: r.read_str()?,
                token: r.read_bytes()?.to_vec(),
            }),
            1 => Ok(GripRequest::Search {
                id: r.read_varint()?,
                spec: SearchSpec::decode(r)?,
            }),
            2 => Ok(GripRequest::Subscribe {
                id: r.read_varint()?,
                spec: SearchSpec::decode(r)?,
                mode: SubscriptionMode::decode(r)?,
            }),
            3 => Ok(GripRequest::Unsubscribe {
                id: r.read_varint()?,
            }),
            4 => Ok(GripRequest::SyncPull {
                id: r.read_varint()?,
                cookie: match r.read_u8()? {
                    0 => None,
                    1 => Some(SyncCookie {
                        epoch: r.read_varint()?,
                        version: r.read_varint()?,
                    }),
                    b => return Err(LdapError::Codec(format!("bad cookie tag {b}"))),
                },
                subtrees: Vec::<Dn>::decode(r)?,
            }),
            b => Err(LdapError::Codec(format!("bad request tag {b}"))),
        }
    }
}

impl Wire for GripReply {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GripReply::BindResult { id, ok, subject } => {
                buf.put_u8(0);
                put_varint(buf, *id);
                ok.encode(buf);
                subject.encode(buf);
            }
            GripReply::SearchResult {
                id,
                code,
                entries,
                referrals,
            } => {
                buf.put_u8(1);
                put_varint(buf, *id);
                code.encode(buf);
                entries.encode(buf);
                referrals.encode(buf);
            }
            GripReply::Update { id, entries } => {
                buf.put_u8(2);
                put_varint(buf, *id);
                entries.encode(buf);
            }
            GripReply::SubscriptionDone { id, code } => {
                buf.put_u8(3);
                put_varint(buf, *id);
                code.encode(buf);
            }
            GripReply::SyncDelta {
                id,
                full,
                epoch,
                version,
                at,
                entries,
                deletes,
            } => {
                buf.put_u8(4);
                put_varint(buf, *id);
                full.encode(buf);
                put_varint(buf, *epoch);
                put_varint(buf, *version);
                put_time(buf, *at);
                entries.encode(buf);
                deletes.encode(buf);
            }
            GripReply::GrrpResult { id, code } => {
                buf.put_u8(5);
                put_varint(buf, *id);
                code.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<GripReply> {
        match r.read_u8()? {
            0 => Ok(GripReply::BindResult {
                id: r.read_varint()?,
                ok: bool::decode(r)?,
                subject: Option::<String>::decode(r)?,
            }),
            1 => Ok(GripReply::SearchResult {
                id: r.read_varint()?,
                code: ResultCode::decode(r)?,
                entries: Vec::<Entry>::decode(r)?,
                referrals: Vec::<LdapUrl>::decode(r)?,
            }),
            2 => Ok(GripReply::Update {
                id: r.read_varint()?,
                entries: Vec::<Entry>::decode(r)?,
            }),
            3 => Ok(GripReply::SubscriptionDone {
                id: r.read_varint()?,
                code: ResultCode::decode(r)?,
            }),
            4 => Ok(GripReply::SyncDelta {
                id: r.read_varint()?,
                full: bool::decode(r)?,
                epoch: r.read_varint()?,
                version: r.read_varint()?,
                at: read_time(r)?,
                entries: Vec::<Entry>::decode(r)?,
                deletes: Vec::<Dn>::decode(r)?,
            }),
            5 => Ok(GripReply::GrrpResult {
                id: r.read_varint()?,
                code: ResultCode::decode(r)?,
            }),
            b => Err(LdapError::Codec(format!("bad reply tag {b}"))),
        }
    }
}

impl Wire for TraceContext {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.trace.0);
        put_varint(buf, self.parent);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<TraceContext> {
        Ok(TraceContext {
            trace: TraceId(r.read_varint()?),
            parent: r.read_varint()?,
        })
    }
}

impl Wire for ProtocolMessage {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ProtocolMessage::Request(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            ProtocolMessage::Reply(m) => {
                buf.put_u8(1);
                m.encode(buf);
            }
            ProtocolMessage::Grrp(m) => {
                buf.put_u8(2);
                m.encode(buf);
            }
            ProtocolMessage::Traced { ctx, inner } => {
                buf.put_u8(3);
                ctx.encode(buf);
                inner.encode(buf);
            }
            // Tag 4 is reserved: at frame-body position 0 it is the mux
            // envelope marker (`frame::MUX_TAG`), so no plain message may
            // ever encode to it.
            ProtocolMessage::Handshake(h) => {
                buf.put_u8(5);
                h.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<ProtocolMessage> {
        match r.read_u8()? {
            0 => Ok(ProtocolMessage::Request(GripRequest::decode(r)?)),
            1 => Ok(ProtocolMessage::Reply(GripReply::decode(r)?)),
            2 => Ok(ProtocolMessage::Grrp(GrrpMessage::decode(r)?)),
            3 => {
                let ctx = TraceContext::decode(r)?;
                let inner = ProtocolMessage::decode(r)?;
                if matches!(inner, ProtocolMessage::Traced { .. }) {
                    return Err(LdapError::Codec("nested traced frame".into()));
                }
                if matches!(inner, ProtocolMessage::Handshake(_)) {
                    return Err(LdapError::Codec("traced handshake frame".into()));
                }
                Ok(ProtocolMessage::Traced {
                    ctx,
                    inner: Box::new(inner),
                })
            }
            5 => Ok(ProtocolMessage::Handshake(Handshake::decode(r)?)),
            b => Err(LdapError::Codec(format!("bad frame tag {b}"))),
        }
    }
}

impl Wire for Handshake {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Handshake::Hello { token } => {
                buf.put_u8(0);
                gis_ldap::codec::put_bytes(buf, token);
            }
            Handshake::Welcome { subject, token } => {
                buf.put_u8(1);
                put_str(buf, subject);
                gis_ldap::codec::put_bytes(buf, token);
            }
            Handshake::Reject { code } => {
                buf.put_u8(2);
                code.encode(buf);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Handshake> {
        match r.read_u8()? {
            0 => Ok(Handshake::Hello {
                token: r.read_bytes()?.to_vec(),
            }),
            1 => Ok(Handshake::Welcome {
                subject: r.read_str()?,
                token: r.read_bytes()?.to_vec(),
            }),
            2 => Ok(Handshake::Reject {
                code: ResultCode::decode(r)?,
            }),
            b => Err(LdapError::Codec(format!("bad handshake tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gis_netsim::secs;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn grrp_roundtrip() {
        roundtrip(GrrpMessage::register(
            LdapUrl::server("gris.a"),
            Dn::parse("hn=hostX").unwrap(),
            SimTime::ZERO + secs(5),
            secs(30),
        ));
        roundtrip(
            GrrpMessage::invite(
                LdapUrl::server("gris.a"),
                LdapUrl::server("giis.vo"),
                SimTime::ZERO,
                secs(60),
            )
            .with_subject("/O=Grid/CN=giis"),
        );
    }

    #[test]
    fn request_roundtrips() {
        roundtrip(GripRequest::Bind {
            id: 1,
            subject: "/O=Grid/CN=alice".into(),
            token: vec![1, 2, 3],
        });
        roundtrip(GripRequest::Search {
            id: 2,
            spec: SearchSpec::subtree(
                Dn::parse("o=O1").unwrap(),
                Filter::parse("(&(objectclass=computer)(load5<=1.0))").unwrap(),
            )
            .select(&["load5"])
            .limit(50),
        });
        roundtrip(GripRequest::Subscribe {
            id: 3,
            spec: SearchSpec::lookup(Dn::parse("perf=load5, hn=h").unwrap()),
            mode: SubscriptionMode::Periodic(secs(10)),
        });
        roundtrip(GripRequest::Subscribe {
            id: 4,
            spec: SearchSpec::lookup(Dn::root()),
            mode: SubscriptionMode::OnChange,
        });
        roundtrip(GripRequest::Unsubscribe { id: 5 });
        roundtrip(GripRequest::SyncPull {
            id: 6,
            cookie: None,
            subtrees: vec![],
        });
        roundtrip(GripRequest::SyncPull {
            id: 7,
            cookie: Some(SyncCookie {
                epoch: 1_000_000,
                version: 41,
            }),
            subtrees: vec![Dn::parse("o=O1").unwrap(), Dn::parse("vo=alpha").unwrap()],
        });
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip(GripReply::BindResult {
            id: 1,
            ok: true,
            subject: Some("/O=Grid/CN=alice".into()),
        });
        roundtrip(GripReply::SearchResult {
            id: 2,
            code: ResultCode::PartialResults,
            entries: vec![Entry::at("hn=h").unwrap().with("load5", 0.5f64)],
            referrals: vec![LdapUrl::server("gris.b")],
        });
        roundtrip(GripReply::Update {
            id: 3,
            entries: vec![],
        });
        roundtrip(GripReply::SubscriptionDone {
            id: 4,
            code: ResultCode::Unavailable,
        });
        roundtrip(GripReply::SyncDelta {
            id: 5,
            full: true,
            epoch: 7,
            version: 12,
            at: SimTime::ZERO + secs(3),
            entries: vec![Entry::at("hn=h").unwrap().with("mds-sync-version", 12i64)],
            deletes: vec![],
        });
        roundtrip(GripReply::SyncDelta {
            id: 6,
            full: false,
            epoch: 7,
            version: 13,
            at: SimTime::ZERO + secs(4),
            entries: vec![],
            deletes: vec![Dn::parse("hn=gone, o=O1").unwrap()],
        });
    }

    #[test]
    fn sync_frames_reject_truncation_and_bad_tags() {
        let msg = ProtocolMessage::Request(GripRequest::SyncPull {
            id: 3,
            cookie: Some(SyncCookie {
                epoch: 5,
                version: 9,
            }),
            subtrees: vec![Dn::parse("o=O1").unwrap()],
        });
        let bytes = msg.to_wire();
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
        let reply = ProtocolMessage::Reply(GripReply::SyncDelta {
            id: 4,
            full: false,
            epoch: 5,
            version: 2,
            at: SimTime(77),
            entries: vec![Entry::at("hn=h").unwrap().with("x", "1")],
            deletes: vec![Dn::parse("hn=d").unwrap()],
        });
        let bytes = reply.to_wire();
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
        // A bad cookie-presence tag must not decode.
        let mut bad = BytesMut::new();
        bad.put_u8(0); // Request
        bad.put_u8(4); // SyncPull
        put_varint(&mut bad, 1); // id
        bad.put_u8(7); // bogus cookie tag
        assert!(ProtocolMessage::from_wire(&bad).is_err());
    }

    #[test]
    fn frame_roundtrips() {
        roundtrip(ProtocolMessage::Request(GripRequest::Unsubscribe { id: 9 }));
        roundtrip(ProtocolMessage::Reply(GripReply::Update {
            id: 9,
            entries: vec![],
        }));
        roundtrip(ProtocolMessage::Grrp(GrrpMessage::register(
            LdapUrl::server("g"),
            Dn::root(),
            SimTime::ZERO,
            secs(1),
        )));
    }

    #[test]
    fn all_result_codes_roundtrip() {
        for code in [
            ResultCode::Success,
            ResultCode::NoSuchObject,
            ResultCode::SizeLimitExceeded,
            ResultCode::InsufficientAccess,
            ResultCode::Unavailable,
            ResultCode::PartialResults,
            ResultCode::UnwillingToPerform,
            ResultCode::StaleResults,
            ResultCode::AuthRejected,
        ] {
            roundtrip(code);
        }
    }

    #[test]
    fn handshake_frames_roundtrip() {
        for h in [
            Handshake::Hello {
                token: vec![9, 8, 7, 6],
            },
            Handshake::Hello { token: vec![] },
            Handshake::Welcome {
                subject: "/O=Grid/CN=alice".into(),
                token: vec![1, 2, 3],
            },
            Handshake::Welcome {
                subject: "/O=Grid/CN=bob".into(),
                token: vec![],
            },
            Handshake::Reject {
                code: ResultCode::AuthRejected,
            },
            Handshake::Reject {
                code: ResultCode::UnwillingToPerform,
            },
        ] {
            roundtrip(ProtocolMessage::Handshake(h));
        }
        // Truncations at every prefix are rejected.
        let bytes = ProtocolMessage::Handshake(Handshake::Welcome {
            subject: "/O=Grid/CN=alice".into(),
            token: vec![1, 2, 3, 4, 5],
        })
        .to_wire();
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
        // Bad inner tag rejected.
        let mut bad = BytesMut::new();
        bad.put_u8(5);
        bad.put_u8(9);
        assert!(ProtocolMessage::from_wire(&bad).is_err());
    }

    #[test]
    fn traced_handshake_rejected_on_decode() {
        let ctx = TraceContext {
            trace: TraceId(4),
            parent: 2,
        };
        let mut bytes = BytesMut::new();
        bytes.put_u8(3); // Traced
        ctx.encode(&mut bytes);
        ProtocolMessage::Handshake(Handshake::Hello { token: vec![1] }).encode(&mut bytes);
        assert!(ProtocolMessage::from_wire(&bytes).is_err());
    }

    #[test]
    fn grrp_result_roundtrips() {
        roundtrip(GripReply::GrrpResult {
            id: 0,
            code: ResultCode::AuthRejected,
        });
        let mut r = GripReply::GrrpResult {
            id: 3,
            code: ResultCode::AuthRejected,
        };
        assert_eq!(r.id(), 3);
        r.set_id(11);
        assert_eq!(r.id(), 11);
        let bytes = ProtocolMessage::Reply(GripReply::GrrpResult {
            id: 1,
            code: ResultCode::AuthRejected,
        })
        .to_wire();
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn traced_frame_roundtrips() {
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef),
            parent: 17,
        };
        let inner = ProtocolMessage::Request(GripRequest::Search {
            id: 7,
            spec: SearchSpec::lookup(Dn::parse("hn=h").unwrap()),
        });
        let traced = inner.clone().traced(ctx);
        roundtrip(traced.clone());
        // untraced splits back out
        let (got_ctx, got_inner) = traced.clone().untraced();
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(got_inner, inner);
        // re-wrapping replaces rather than nests
        let ctx2 = TraceContext {
            trace: TraceId(1),
            parent: 2,
        };
        match traced.traced(ctx2) {
            ProtocolMessage::Traced { ctx, inner } => {
                assert_eq!(ctx, ctx2);
                assert!(!matches!(*inner, ProtocolMessage::Traced { .. }));
            }
            other => panic!("expected traced frame, got {other:?}"),
        }
        // truncations of the traced frame are rejected
        let bytes = ProtocolMessage::Reply(GripReply::Update {
            id: 1,
            entries: vec![],
        })
        .traced(ctx)
        .to_wire();
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
        // nested traced frames rejected on decode
        let mut nested = BytesMut::new();
        nested.put_u8(3);
        ctx.encode(&mut nested);
        nested.put_slice(&bytes); // bytes is itself a tag-3 frame
        assert!(ProtocolMessage::from_wire(&nested).is_err());
    }

    #[test]
    fn corrupted_frames_rejected() {
        let msg = ProtocolMessage::Request(GripRequest::Search {
            id: 1,
            spec: SearchSpec::lookup(Dn::parse("hn=h").unwrap()),
        });
        let bytes = msg.to_wire();
        // Bad top-level tag.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(ProtocolMessage::from_wire(&bad).is_err());
        // Truncations at every prefix length.
        for cut in 0..bytes.len() {
            assert!(ProtocolMessage::from_wire(&bytes[..cut]).is_err());
        }
    }
}
