import javax.enterprise.context.ApplicationScoped;
import javax.enterprise.event.Observes;
import javax.enterprise.inject.Produces;
import javax.inject.Inject;
import javax.inject.Named;

@ApplicationScoped
class K27 {
    @Inject
    K26Like helper;

    @Produces
    @Named("clock")
    long now() {
        return 0L;
    }

    void onStart(@Observes Object event) {
    }
}

interface K26Like {
}
