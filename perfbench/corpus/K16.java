import java.util.concurrent.ConcurrentHashMap;
import java.util.concurrent.CountDownLatch;
import java.util.concurrent.ExecutorService;
import java.util.concurrent.Executors;
import java.util.concurrent.atomic.AtomicInteger;

class K16 {
    private final AtomicInteger hits = new AtomicInteger();
    private final ConcurrentHashMap<String, Integer> seen = new ConcurrentHashMap<String, Integer>();

    void launch(Runnable task) {
        ExecutorService pool = Executors.newFixedThreadPool(2);
        pool.submit(task);
        new Thread(task).start();
    }

    synchronized void bump() {
        hits.incrementAndGet();
    }

    void await(CountDownLatch latch) throws InterruptedException {
        synchronized (this) {
            hits.set(0);
        }
        latch.await();
    }
}
