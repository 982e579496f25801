import javax.ws.rs.GET;
import javax.ws.rs.POST;
import javax.ws.rs.Path;
import javax.ws.rs.PathParam;
import javax.ws.rs.Produces;

@Path("/items")
class K24 {
    @GET
    @Produces("application/json")
    String list() {
        return "[]";
    }

    @POST
    @Path("/{id}")
    String create(@PathParam("id") long id) {
        return String.valueOf(id);
    }
}
