import javax.batch.api.Batchlet;
import javax.batch.operations.JobOperator;
import javax.batch.runtime.BatchRuntime;

class K28 implements Batchlet {
    public String process() {
        JobOperator op = BatchRuntime.getJobOperator();
        op.getJobNames();
        return "COMPLETED";
    }

    public void stop() {
    }
}
