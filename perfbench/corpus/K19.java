import javax.persistence.Column;
import javax.persistence.Entity;
import javax.persistence.EntityManager;
import javax.persistence.Id;
import javax.persistence.TypedQuery;

@Entity
class Account {
    @Id
    long id;

    @Column(name = "owner")
    String owner;
}

class K19 {
    Account find(EntityManager em, long id) {
        TypedQuery<Account> q = em.createQuery("SELECT a FROM Account a WHERE a.id = :id", Account.class);
        q.setParameter("id", id);
        return q.getSingleResult();
    }

    void save(EntityManager em, Account a) {
        em.persist(a);
    }
}
