import javax.ejb.Schedule;
import javax.ejb.SessionContext;
import javax.ejb.Stateless;

@Stateless
class BillingService {
    SessionContext context;

    @Schedule(hour = "2")
    void nightly() {
        run();
    }

    void run() {
    }
}
