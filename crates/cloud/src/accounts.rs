//! User accounts and `UserToken` issuance.

use std::collections::HashMap;

use rb_netsim::{NodeId, SimRng};
use rb_wire::messages::DenyReason;
use rb_wire::tokens::{UserId, UserPw, UserToken};

/// The account store: registered users, their passwords, and the tokens
/// issued to logged-in sessions.
#[derive(Debug, Default)]
pub(crate) struct AccountStore {
    passwords: HashMap<UserId, UserPw>,
    tokens: HashMap<UserToken, UserId>,
    /// Last node each user logged in from — where pushes are delivered.
    nodes: HashMap<UserId, NodeId>,
}

impl AccountStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        AccountStore::default()
    }

    /// Registers an account (vendor-side sign-up; not part of the attacked
    /// surface).
    pub(crate) fn register(&mut self, user_id: UserId, user_pw: UserPw) {
        self.passwords.insert(user_id, user_pw);
    }

    /// Whether an account exists.
    pub(crate) fn exists(&self, user_id: &UserId) -> bool {
        self.passwords.contains_key(user_id)
    }

    /// Password login from `node`; issues a fresh [`UserToken`].
    ///
    /// # Errors
    ///
    /// [`DenyReason::BadCredentials`] on unknown user or wrong password.
    pub(crate) fn login(
        &mut self,
        user_id: &UserId,
        user_pw: &UserPw,
        node: NodeId,
        rng: &mut SimRng,
    ) -> Result<UserToken, DenyReason> {
        match self.passwords.get(user_id) {
            Some(stored) if stored.verify(user_pw) => {
                let token = UserToken::from_entropy(rng.entropy128());
                self.tokens.insert(token, user_id.clone());
                self.nodes.insert(user_id.clone(), node);
                Ok(token)
            }
            _ => Err(DenyReason::BadCredentials),
        }
    }

    /// Verifies a password without minting a token (device-initiated ACL
    /// binding carries raw credentials).
    ///
    /// # Errors
    ///
    /// [`DenyReason::BadCredentials`] on unknown user or wrong password.
    pub(crate) fn verify_password(
        &self,
        user_id: &UserId,
        user_pw: &UserPw,
    ) -> Result<(), DenyReason> {
        match self.passwords.get(user_id) {
            Some(stored) if stored.verify(user_pw) => Ok(()),
            _ => Err(DenyReason::BadCredentials),
        }
    }

    /// Resolves a token to its user.
    ///
    /// # Errors
    ///
    /// [`DenyReason::InvalidUserToken`] if the token was never issued (or
    /// was revoked).
    pub(crate) fn verify_token(&self, token: &UserToken) -> Result<&UserId, DenyReason> {
        self.tokens.get(token).ok_or(DenyReason::InvalidUserToken)
    }

    /// The node a user last logged in from.
    pub(crate) fn node_of(&self, user_id: &UserId) -> Option<NodeId> {
        self.nodes.get(user_id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AccountStore {
        // Number of live tokens (diagnostics).
        fn live_tokens(&self) -> usize {
            self.tokens.len()
        }
    }

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn login_issues_distinct_tokens() {
        let mut store = AccountStore::new();
        let mut rng = rng();
        store.register(UserId::new("alice"), UserPw::new("pw"));
        let t1 = store
            .login(
                &UserId::new("alice"),
                &UserPw::new("pw"),
                NodeId(1),
                &mut rng,
            )
            .unwrap();
        let t2 = store
            .login(
                &UserId::new("alice"),
                &UserPw::new("pw"),
                NodeId(1),
                &mut rng,
            )
            .unwrap();
        assert_ne!(t1, t2);
        assert_eq!(store.verify_token(&t1).unwrap(), &UserId::new("alice"));
        assert_eq!(store.verify_token(&t2).unwrap(), &UserId::new("alice"));
        assert_eq!(store.live_tokens(), 2);
    }

    #[test]
    fn wrong_password_and_unknown_user_fail_identically() {
        let mut store = AccountStore::new();
        let mut rng = rng();
        store.register(UserId::new("alice"), UserPw::new("pw"));
        let bad_pw = store.login(
            &UserId::new("alice"),
            &UserPw::new("x"),
            NodeId(1),
            &mut rng,
        );
        let no_user = store.login(&UserId::new("bob"), &UserPw::new("pw"), NodeId(1), &mut rng);
        assert_eq!(bad_pw.unwrap_err(), DenyReason::BadCredentials);
        assert_eq!(no_user.unwrap_err(), DenyReason::BadCredentials);
    }

    #[test]
    fn forged_token_is_rejected() {
        let store = AccountStore::new();
        assert_eq!(
            store.verify_token(&UserToken::from_entropy(1)).unwrap_err(),
            DenyReason::InvalidUserToken
        );
    }

    #[test]
    fn node_tracking_follows_last_login() {
        let mut store = AccountStore::new();
        let mut rng = rng();
        store.register(UserId::new("alice"), UserPw::new("pw"));
        store
            .login(
                &UserId::new("alice"),
                &UserPw::new("pw"),
                NodeId(3),
                &mut rng,
            )
            .unwrap();
        assert_eq!(store.node_of(&UserId::new("alice")), Some(NodeId(3)));
        store
            .login(
                &UserId::new("alice"),
                &UserPw::new("pw"),
                NodeId(9),
                &mut rng,
            )
            .unwrap();
        assert_eq!(store.node_of(&UserId::new("alice")), Some(NodeId(9)));
        assert_eq!(store.node_of(&UserId::new("bob")), None);
    }

    #[test]
    fn verify_password_does_not_mint() {
        let mut store = AccountStore::new();
        store.register(UserId::new("alice"), UserPw::new("pw"));
        assert!(store
            .verify_password(&UserId::new("alice"), &UserPw::new("pw"))
            .is_ok());
        assert!(store
            .verify_password(&UserId::new("alice"), &UserPw::new("no"))
            .is_err());
        assert_eq!(store.live_tokens(), 0);
    }
}
